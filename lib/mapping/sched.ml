module Obs = Fpfa_obs.Obs

type t = {
  clustering : Cluster.t;
  level_of : int array;
  levels : int list array;
  asap : int array;
  alap : int array;
}

(* Scheduler tallies for `--stats` (inert until Obs.enable). *)
let c_displacements = Obs.counter "sched.displacements"
let c_levels = Obs.counter "sched.levels"
let c_levels_inserted = Obs.counter "sched.levels_inserted"

exception Scheduling_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Scheduling_error msg)) fmt

let uses_alu (c : Cluster.cluster) = c.Cluster.root <> None

(* Compressed adjacency: the edges of cluster [c] are [dst.(k)] /
   [weight.(k)] for [k] in [off.(c) .. off.(c+1) - 1]. Flat int arrays,
   scanned once each: the paper's linearity claim holds only when edges
   are not rescanned per cluster, and pointer-chasing tuple lists make
   even a single scan cache-bound on large graphs. *)
type adjacency = { off : int array; dst : int array; weight : int array }

let adjacency (clustering : Cluster.t) ~forward =
  let n = Array.length clustering.Cluster.clusters in
  let off = Array.make (n + 1) 0 in
  let from (e : Cluster.edge) = if forward then e.Cluster.src else e.Cluster.dst in
  let other (e : Cluster.edge) = if forward then e.Cluster.dst else e.Cluster.src in
  List.iter (fun e -> off.(from e + 1) <- off.(from e + 1) + 1) clustering.Cluster.edges;
  for c = 1 to n do
    off.(c) <- off.(c) + off.(c - 1)
  done;
  let m = off.(n) in
  let dst = Array.make m 0 and weight = Array.make m 0 in
  let fill = Array.sub off 0 n in
  List.iter
    (fun (e : Cluster.edge) ->
      let k = fill.(from e) in
      fill.(from e) <- k + 1;
      dst.(k) <- other e;
      weight.(k) <- e.Cluster.weight)
    clustering.Cluster.edges;
  { off; dst; weight }

let degree adj c = adj.off.(c + 1) - adj.off.(c)

(* Kahn's algorithm over [adj] from the clusters with no incoming edge,
   relaxing [value.(dst)] with [relax value.(c) weight] along each edge;
   returns how many clusters it reached. *)
let propagate adj ~n ~value ~relax =
  let indeg = Array.make n 0 in
  Array.iter (fun d -> indeg.(d) <- indeg.(d) + 1) adj.dst;
  let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
  for c = 0 to n - 1 do
    if indeg.(c) = 0 then begin
      queue.(!tail) <- c;
      incr tail
    end
  done;
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    for k = adj.off.(c) to adj.off.(c + 1) - 1 do
      let d = adj.dst.(k) in
      value.(d) <- relax value.(d) value.(c) adj.weight.(k);
      indeg.(d) <- indeg.(d) - 1;
      if indeg.(d) = 0 then begin
        queue.(!tail) <- d;
        incr tail
      end
    done
  done;
  !head

type priority = Mobility | Alap_first | Cid_order

(* Binary min-heap of cids under a total order: the pool of clusters a
   full level displaced, carried from level to level. *)
module Heap = struct
  type t = { data : int array; mutable len : int; before : int -> int -> bool }

  let create n ~before = { data = Array.make (max 1 n) 0; len = 0; before }

  let push h x =
    let d = h.data in
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.before x d.((!i - 1) / 2) do
      d.(!i) <- d.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    d.(!i) <- x

  let top h = h.data.(0)

  let pop h =
    let d = h.data in
    let x = d.(0) in
    h.len <- h.len - 1;
    let last = d.(h.len) in
    let n = h.len in
    let i = ref 0 in
    let continue = ref (n > 0) in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && h.before d.(l + 1) d.(l) then l + 1 else l in
        if h.before d.(c) last then begin
          d.(!i) <- d.(c);
          i := c
        end
        else continue := false
      end
    done;
    if n > 0 then d.(!i) <- last;
    x
end

let run ?(alu_count = 5) ?(priority = Mobility) (clustering : Cluster.t) =
  if alu_count <= 0 then errorf "alu_count must be positive";
  let clusters = clustering.Cluster.clusters in
  let n = Array.length clusters in
  let succs = adjacency clustering ~forward:true in
  let preds = adjacency clustering ~forward:false in
  (* Longest-path levels assuming unbounded ALUs, then the latest levels
     that keep the critical path. *)
  let asap = Array.make n 0 in
  if propagate succs ~n ~value:asap ~relax:(fun v from w -> max v (from + w)) <> n
  then errorf "cluster graph has a cycle";
  let horizon = Array.fold_left max 0 asap in
  let alap = Array.make n horizon in
  ignore (propagate preds ~n ~value:alap ~relax:(fun v from w -> min v (from - w)));
  let level_of = Array.make n (-1) in
  (* Contended levels go to the highest-priority clusters; the paper plays
     the critical path (least mobility) first. Ties break on cid, so the
     order is total. *)
  let prio =
    match priority with
    | Mobility -> fun cid -> alap.(cid) - asap.(cid)
    | Alap_first -> fun cid -> alap.(cid)
    | Cid_order -> fun _ -> 0
  in
  let before a b =
    let pa = prio a and pb = prio b in
    pa < pb || (pa = pb && a < b)
  in
  let compare_prio a b = if a = b then 0 else if before a b then -1 else 1 in
  (* Clusters become ready once all predecessors are placed; their earliest
     feasible level is then fixed, so arrivals are bucketed by level (a
     linked list per level threaded through [next]) and every cluster is
     touched O(1) times. A cluster a full level displaces waits in [pool],
     a heap under the same order, instead of being re-sorted with every
     later level's arrivals. *)
  let unplaced_preds = Array.init n (degree preds) in
  let earliest cid =
    let e = ref 0 in
    for k = preds.off.(cid) to preds.off.(cid + 1) - 1 do
      e := max !e (level_of.(preds.dst.(k)) + preds.weight.(k))
    done;
    !e
  in
  let bucket = ref (Array.make (horizon + 1) (-1)) in
  let next = Array.make n (-1) in
  let push cid lvl =
    let len = Array.length !bucket in
    if lvl >= len then begin
      let grown = Array.make (max (lvl + 1) (2 * len)) (-1) in
      Array.blit !bucket 0 grown 0 len;
      bucket := grown
    end;
    next.(cid) <- !bucket.(lvl);
    !bucket.(lvl) <- cid
  in
  (* the arrivals of [lvl] in priority order, emptying its bucket *)
  let arrivals = Array.make n 0 in
  let take lvl =
    let count = ref 0 in
    if lvl < Array.length !bucket then begin
      let c = ref !bucket.(lvl) in
      while !c >= 0 do
        arrivals.(!count) <- !c;
        incr count;
        c := next.(!c)
      done;
      !bucket.(lvl) <- -1
    end;
    let sorted = Array.sub arrivals 0 !count in
    Array.sort compare_prio sorted;
    sorted
  in
  for cid = n - 1 downto 0 do
    if unplaced_preds.(cid) = 0 then push cid 0
  done;
  let pool = Heap.create n ~before in
  let remaining = ref n in
  let levels = ref [] in
  let level = ref 0 in
  while !remaining > 0 do
    if !level > (2 * n) + horizon + 2 then
      errorf "scheduler failed to place all clusters (internal error)";
    let this_level = ref [] in
    let alus_used = ref 0 in
    let place cid =
      level_of.(cid) <- !level;
      this_level := cid :: !this_level;
      if uses_alu clusters.(cid) then incr alus_used;
      decr remaining;
      for k = succs.off.(cid) to succs.off.(cid + 1) - 1 do
        let dst = succs.dst.(k) in
        unplaced_preds.(dst) <- unplaced_preds.(dst) - 1;
        if unplaced_preds.(dst) = 0 then push dst (max (earliest dst) !level)
      done
    in
    let room () = !alus_used < alu_count in
    (* Sweep the level's arrivals merged with the pool; placements can
       ready weight-0 successors for this same level, which re-fills the
       bucket for another sweep. Pool members all need an ALU, so once the
       level is full the rest of the pool stays put; only the first sweep
       draws on it, later ones see only what this level itself readied.
       A ready cluster is placed, or displaced into the pool when it needs
       an ALU and the level is full (paper Fig. 4). *)
    let first = ref true in
    let continue_sweeps = ref true in
    while !continue_sweeps do
      let ready = take !level in
      if Array.length ready = 0 && not (!first && pool.Heap.len > 0) then
        continue_sweeps := false
      else begin
        let from_pool = !first in
        first := false;
        Array.iter
          (fun a ->
            while from_pool && pool.Heap.len > 0 && room () && before (Heap.top pool) a do
              place (Heap.pop pool)
            done;
            if uses_alu clusters.(a) && not (room ()) then Heap.push pool a
            else place a)
          ready;
        while from_pool && pool.Heap.len > 0 && room () do
          place (Heap.pop pool)
        done
      end
    done;
    (* every cluster still pooled was displaced by this level *)
    Obs.add c_displacements pool.Heap.len;
    levels := List.rev !this_level :: !levels;
    incr level
  done;
  (* Trim trailing empty levels. *)
  let rec trim = function [] :: rest -> trim rest | levels -> levels in
  let levels = Array.of_list (List.rev (trim !levels)) in
  (* record_max, not set: a parallel corpus batch must report the same
     value as a sequential one, and last-writer-wins is not
     deterministic across domains. *)
  Obs.record_max c_levels (Array.length levels);
  Obs.add c_levels_inserted (max 0 (Array.length levels - (horizon + 1)));
  { clustering; level_of; levels; asap; alap }

let level_count t = Array.length t.levels

let critical_path_levels t = Array.fold_left max 0 t.asap + 1

let mobility t cid = t.alap.(cid) - t.asap.(cid)

let validate t ~alu_count =
  List.iter
    (fun (e : Cluster.edge) ->
      if t.level_of.(e.Cluster.src) + e.Cluster.weight > t.level_of.(e.Cluster.dst)
      then
        errorf "dependence violated: Clu%d(+%d) -> Clu%d" e.Cluster.src
          e.Cluster.weight e.Cluster.dst)
    t.clustering.Cluster.edges;
  Array.iteri
    (fun level cids ->
      let alus =
        List.length
          (List.filter
             (fun cid -> uses_alu t.clustering.Cluster.clusters.(cid))
             cids)
      in
      if alus > alu_count then
        errorf "level %d uses %d ALUs (limit %d)" level alus alu_count)
    t.levels;
  Array.iteri
    (fun cid level ->
      if level < 0 then errorf "cluster %d was never placed" cid)
    t.level_of

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun level cids ->
      Format.fprintf fmt "Level%d: %s@," level
        (String.concat " " (List.map (fun cid -> "Clu" ^ string_of_int cid) cids)))
    t.levels;
  Format.fprintf fmt "@]"

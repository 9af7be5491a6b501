module G = Cdfg.Graph
module Op = Cdfg.Op
module Arch = Fpfa_arch.Arch
module Intbuf = Fpfa_util.Intbuf

type cluster = {
  cid : int;
  ops : G.id list;
  root : G.id option;
  stores : G.id list;
  deletes : G.id list;
  cinputs : G.id list;
}

type edge = { src : int; dst : int; weight : int }

type t = {
  graph : G.t;
  clusters : cluster array;
  edges : edge list;
  cluster_of : (G.id, int) Hashtbl.t;
}

exception Clustering_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Clustering_error msg)) fmt

let is_value_op g id =
  match G.kind g id with
  | G.Binop _ | G.Unop _ | G.Mux -> true
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ -> false

let is_mult_class g id =
  match G.kind g id with
  | G.Binop op -> Op.is_multiplier_class op
  | _ -> false

(* Data-path check of an explicit member set (Sarkar's merge candidates,
   {!validate}'s clusters). Membership, counted operands and memoised
   depths are stamp arrays over a dense numbering of the nodes, so one
   check touches only the members and their operands. *)
type probe = {
  pg : G.t;
  slot : int array;  (** node id -> index into the arrays below *)
  mark : int array;  (** = [stamp]: member of the set under test *)
  seen : int array;  (** = [stamp]: operand already counted *)
  dmark : int array;  (** = [stamp]: [dval] holds the node's depth *)
  dval : int array;
  members : Intbuf.t;
  mutable stamp : int;
}

let new_probe g ~slot nodes =
  {
    pg = g;
    slot;
    mark = Array.make nodes (-1);
    seen = Array.make nodes (-1);
    dmark = Array.make nodes (-1);
    dval = Array.make nodes 0;
    members = Intbuf.create ();
    stamp = -1;
  }

let probe_begin pr =
  pr.stamp <- pr.stamp + 1;
  pr.members.Intbuf.len <- 0

(* a repeated id counts once, as in a set *)
let probe_add pr id =
  let i = pr.slot.(id) in
  if pr.mark.(i) <> pr.stamp then begin
    pr.mark.(i) <- pr.stamp;
    Intbuf.push pr.members id
  end

(* Longest path within the member set ending at [id], counted in
   operations. *)
let rec member_depth pr id =
  let s = pr.stamp and i = pr.slot.(id) in
  if pr.mark.(i) <> s then 0
  else if pr.dmark.(i) = s then pr.dval.(i)
  else begin
    let d = ref 0 in
    for port = 0 to G.arity_of pr.pg id - 1 do
      let x = member_depth pr (G.input pr.pg id port) in
      if x > !d then d := x
    done;
    pr.dmark.(i) <- s;
    pr.dval.(i) <- 1 + !d;
    1 + !d
  end

let probe_fits pr (caps : Arch.alu_caps) =
  let g = pr.pg and s = pr.stamp in
  let items = pr.members.Intbuf.items and n = pr.members.Intbuf.len in
  n <= caps.Arch.max_ops
  && begin
       let mults = ref 0 in
       for j = 0 to n - 1 do
         if is_mult_class g items.(j) then incr mults
       done;
       !mults <= caps.Arch.max_multipliers
     end
  && begin
       let depth = ref 0 in
       for j = 0 to n - 1 do
         let d = member_depth pr items.(j) in
         if d > !depth then depth := d
       done;
       !depth <= caps.Arch.max_depth
     end
  &&
  let inputs = ref 0 in
  for j = 0 to n - 1 do
    let m = items.(j) in
    for port = 0 to G.arity_of g m - 1 do
      let x = pr.slot.(G.input g m port) in
      if pr.mark.(x) <> s && pr.seen.(x) <> s then begin
        pr.seen.(x) <- s;
        incr inputs
      end
    done
  done;
  !inputs <= caps.Arch.max_inputs

(* Shared context of the partitioning algorithms. Per-node tables are
   indexed by topological position, a dense numbering: a minimised graph
   keeps its raw graph's ids, which can outnumber its nodes tenfold. *)
type ctx = {
  cg : G.t;
  order : int array;  (** topological position -> node id *)
  pos : int array;  (** node id -> topological position *)
  named : Bytes.t;  (** position -> ['\001'] when a named output *)
}

let make_ctx g =
  Legalize.check g;
  let pos = Array.make (G.id_bound g) (-1) in
  let order = Array.make (G.node_count g) 0 in
  List.iteri
    (fun i id ->
      order.(i) <- id;
      pos.(id) <- i)
    (G.topo_order g);
  let named = Bytes.make (Array.length order) '\000' in
  List.iter (fun (_, id) -> Bytes.set named pos.(id) '\001') (G.outputs g);
  { cg = g; order; pos; named }

let is_named ctx id = Bytes.get ctx.named ctx.pos.(id) <> '\000'

(* A partition of the value operations: part [k] computes [roots.(k)],
   [owner.(p)] is the part of the value op at position [p] (-1 for every
   other node). *)
type partition = { owner : int array; roots : int array; parts : int }

(* Greedy data-path template partitioning (the paper's phase 1). Value ops
   are visited in reverse topological order, so consumers claim their
   producers first; a part grows by absorbing, smallest id first, an
   unclaimed operand whose consumers are all members, until no operand
   fits the data path.

   Every non-root member has all its consumers inside the part, so no
   member is an operand of a candidate: absorbing [p] turns exactly [p]
   from an external operand into a member, adds [p]'s own operands, and
   extends the longest path by one step above [p]'s deepest consumer.
   Each cap is therefore probed incrementally, from the part's running
   counts and the per-member path length [down] (to the root, in ops). *)
let partition_greedy ctx (caps : Arch.alu_caps) =
  let g = ctx.cg and pos = ctx.pos in
  let nodes = Array.length ctx.order in
  let owner = Array.make nodes (-1) in
  let roots = Array.make nodes 0 in
  let parts = ref 0 in
  let cap = max 1 (min caps.Arch.max_ops nodes) in
  let members = Array.make cap 0 and cands = Array.make (3 * cap) 0 in
  let down = Array.make nodes 0 in
  (* = part: the node is already an external operand of that part *)
  let ext = Array.make nodes (-1) in
  (* consumer probe: every consumer a member of [probe_part], and the
     longest [down] among them *)
  let probe_part = ref 0 and probe_ok = ref true and probe_down = ref 0 in
  let visit user _port =
    let u = pos.(user) in
    if owner.(u) <> !probe_part then probe_ok := false
    else if down.(u) > !probe_down then probe_down := down.(u)
  in
  (* operands of [p] not yet external to part [k], a repeated one once *)
  let fresh_inputs k p =
    let fresh = ref 0 in
    for port = 0 to G.arity_of g p - 1 do
      let x = G.input g p port in
      if ext.(pos.(x)) <> k then begin
        let repeated = ref false in
        for earlier = 0 to port - 1 do
          if G.input g p earlier = x then repeated := true
        done;
        if not !repeated then incr fresh
      end
    done;
    !fresh
  in
  let mark_inputs k p =
    for port = 0 to G.arity_of g p - 1 do
      ext.(pos.(G.input g p port)) <- k
    done
  in
  let grow root =
    let k = !parts in
    incr parts;
    roots.(k) <- root;
    owner.(pos.(root)) <- k;
    members.(0) <- root;
    down.(pos.(root)) <- 1;
    let size = ref 1 and depth = ref 1 in
    let mults = ref (if is_mult_class g root then 1 else 0) in
    let inputs = ref (fresh_inputs k root) in
    mark_inputs k root;
    let growing = ref true in
    while !growing && !size < caps.Arch.max_ops do
      (* unclaimed value-op operands of the members, ascending, distinct *)
      let n = ref 0 in
      for j = 0 to !size - 1 do
        let m = members.(j) in
        for port = 0 to G.arity_of g m - 1 do
          let x = G.input g m port in
          if owner.(pos.(x)) < 0 && is_value_op g x then begin
            let at = ref !n in
            while !at > 0 && cands.(!at - 1) > x do
              decr at
            done;
            if !at = 0 || cands.(!at - 1) <> x then begin
              Array.blit cands !at cands (!at + 1) (!n - !at);
              cands.(!at) <- x;
              incr n
            end
          end
        done
      done;
      let chosen = ref (-1) and c = ref 0 in
      while !chosen < 0 && !c < !n do
        let p = cands.(!c) in
        let p_mults = if is_mult_class g p then 1 else 0 in
        let p_inputs = !inputs - 1 + fresh_inputs k p in
        if
          (not (is_named ctx p))
          && !mults + p_mults <= caps.Arch.max_multipliers
          && p_inputs <= caps.Arch.max_inputs
          (* each member reads [p] on at most three ports *)
          && G.data_use_count g p <= 3 * !size
          && begin
               probe_part := k;
               probe_ok := true;
               probe_down := 0;
               G.iter_consumers_unordered g p visit;
               !probe_ok
             end
          && max !depth (1 + !probe_down) <= caps.Arch.max_depth
        then begin
          chosen := p;
          inputs := p_inputs;
          mark_inputs k p;
          mults := !mults + p_mults;
          down.(pos.(p)) <- 1 + !probe_down;
          depth := max !depth (1 + !probe_down);
          owner.(pos.(p)) <- k;
          members.(!size) <- p;
          incr size
        end;
        incr c
      done;
      if !chosen < 0 then growing := false
    done
  in
  for i = nodes - 1 downto 0 do
    let id = ctx.order.(i) in
    if owner.(i) < 0 && is_value_op g id then grow id
  done;
  { owner; roots; parts = !parts }

(* Sarkar-style edge zeroing: start from unit clusters and merge along data
   edges (in deterministic topological edge order) whenever the fused
   cluster still fits the ALU data path and keeps a single result. In the
   one-cycle-per-cluster model a legal merge never lengthens the critical
   path, so Sarkar's completion-time guard reduces to the cap check.

   Parts are union-find sets whose representative is the part's root (a
   merge links the producer's part under the consumer's), with member
   lists threaded through [next] and concatenated in O(1). The edges
   (producer, consumer) are enumerated by producer in topological order,
   each producer's consumers in topological order, from one counting pass:
   the order the merges must happen in, without a sort. *)
let partition_sarkar ctx (caps : Arch.alu_caps) =
  let g = ctx.cg and order = ctx.order and pos = ctx.pos in
  let nodes = Array.length order in
  (* every table here is indexed by position and holds positions *)
  let parent = Array.make nodes (-1) in
  let size = Array.make nodes 0 in
  let next = Array.make nodes (-1) and last = Array.make nodes 0 in
  for i = 0 to nodes - 1 do
    if is_value_op g order.(i) then begin
      parent.(i) <- i;
      size.(i) <- 1;
      last.(i) <- i
    end
  done;
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      parent.(i) <- r;
      r
    end
  in
  (* [iter_producers u f]: [f v] for each distinct value-op operand [v] *)
  let iter_producers u f =
    let a = G.arity_of g u in
    for port = 0 to a - 1 do
      let v = G.input g u port in
      if is_value_op g v then begin
        let repeated = ref false in
        for earlier = 0 to port - 1 do
          if G.input g u earlier = v then repeated := true
        done;
        if not !repeated then f v
      end
    done
  in
  let start = Array.make (nodes + 1) 0 in
  let count v = start.(pos.(v) + 1) <- start.(pos.(v) + 1) + 1 in
  for i = 0 to nodes - 1 do
    let u = order.(i) in
    if is_value_op g u then iter_producers u count
  done;
  for i = 0 to nodes - 1 do
    start.(i + 1) <- start.(i + 1) + start.(i)
  done;
  let fill = Array.sub start 0 nodes in
  let consumer = Array.make start.(nodes) 0 in
  let u_cur = ref 0 in
  let place v =
    consumer.(fill.(pos.(v))) <- !u_cur;
    fill.(pos.(v)) <- fill.(pos.(v)) + 1
  in
  for i = 0 to nodes - 1 do
    let u = order.(i) in
    if is_value_op g u then begin
      u_cur := i;
      iter_producers u place
    end
  done;
  let pr = new_probe g ~slot:pos nodes in
  let rec add_part m =
    if m >= 0 then begin
      probe_add pr order.(m);
      add_part next.(m)
    end
  in
  let within_a = ref 0 and within_b = ref 0 and within_ok = ref true in
  let visit user _port =
    let u = pos.(user) in
    if
      parent.(u) < 0
      ||
      let r = find u in
      r <> !within_a && r <> !within_b
    then within_ok := false
  in
  let try_merge v u =
    let cv = find v and cu = find u in
    if cv <> cu then begin
      let n = size.(cv) + size.(cu) and root = order.(cv) in
      if
        n <= caps.Arch.max_ops
        && (not (is_named ctx root))
        (* each member reads the root on at most three ports *)
        && G.data_use_count g root <= 3 * n
        && begin
             within_a := cv;
             within_b := cu;
             within_ok := true;
             G.iter_consumers_unordered g root visit;
             !within_ok
           end
        && begin
             probe_begin pr;
             add_part cv;
             add_part cu;
             probe_fits pr caps
           end
      then begin
        parent.(cv) <- cu;
        size.(cu) <- n;
        next.(last.(cu)) <- cv;
        last.(cu) <- last.(cv)
      end
    end
  in
  for v = 0 to nodes - 1 do
    for j = start.(v) to start.(v + 1) - 1 do
      try_merge v consumer.(j)
    done
  done;
  let owner = Array.make nodes (-1) and roots = Array.make nodes 0 in
  let parts = ref 0 in
  for i = 0 to nodes - 1 do
    if parent.(i) = i then begin
      owner.(i) <- !parts;
      roots.(!parts) <- order.(i);
      incr parts
    end
  done;
  for i = 0 to nodes - 1 do
    if parent.(i) >= 0 then owner.(i) <- owner.(find i)
  done;
  { owner; roots; parts = !parts }

(* Token chains. In a legal graph a token feeds at most one store/delete;
   when it feeds several, the highest id continues the chain and the
   others head chains of their own. Each chain is walked once from its
   head, carrying per offset the latest store/delete seen and the fetches
   still waiting for a later same-offset one. That gives every fetch its
   overwriter, and every fetch, store and delete on a chain that starts at
   an [Ss_in] the version it interacts with: the first same-offset
   store/delete upstream of its token. *)
type chains = {
  version : int array;
      (** position of a Fe/St/Del -> that store/delete; -1 for the
          region's initial contents; -2 when unresolved (resolved by a
          walk back at use) *)
  overwriter : int array;
      (** position of a Fe -> first same-offset store/delete downstream;
          -1 for none *)
}

let trace_chains ctx =
  let g = ctx.cg and pos = ctx.pos in
  let nodes = Array.length ctx.order in
  (* position of a token -> the store/delete continuing its chain *)
  let succ = Array.make nodes (-1) in
  let max_offset = ref 0 in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.St _ | G.Del _ ->
        succ.(pos.(G.input g id 0)) <- id;
        max_offset := max !max_offset (Legalize.const_offset g id)
      | G.Fe _ -> max_offset := max !max_offset (Legalize.const_offset g id)
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _ ->
        ());
  let cells = !max_offset + 1 in
  (* per offset, valid while its stamp is the current chain's *)
  let latest = Array.make cells (-1) and latest_chain = Array.make cells (-1) in
  let waiting = Array.make cells (-1) and waiting_chain = Array.make cells (-1) in
  let next_waiting = Array.make nodes (-1) in
  let version = Array.make nodes (-2) and overwriter = Array.make nodes (-1) in
  let chain = ref (-1) and rooted = ref false in
  let lookup offset =
    if latest_chain.(offset) = !chain then latest.(offset)
    else if !rooted then -1
    else -2
  in
  let visit user port =
    match G.kind g user with
    | G.Fe _ when port = 0 ->
      let offset = Legalize.const_offset g user in
      version.(pos.(user)) <- lookup offset;
      next_waiting.(pos.(user)) <-
        (if waiting_chain.(offset) = !chain then waiting.(offset) else -1);
      waiting.(offset) <- user;
      waiting_chain.(offset) <- !chain
    | _ -> ()
  in
  let set_latest node =
    let offset = Legalize.const_offset g node in
    latest.(offset) <- node;
    latest_chain.(offset) <- !chain
  in
  let rec walk token =
    G.iter_consumers_unordered g token visit;
    let node = succ.(pos.(token)) in
    if node >= 0 then begin
      let offset = Legalize.const_offset g node in
      version.(pos.(node)) <- lookup offset;
      if waiting_chain.(offset) = !chain then begin
        let fe = ref waiting.(offset) in
        while !fe >= 0 do
          overwriter.(pos.(!fe)) <- node;
          fe := next_waiting.(pos.(!fe))
        done;
        waiting_chain.(offset) <- -1
      end;
      set_latest node;
      walk node
    end
  in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Ss_in _ ->
        incr chain;
        rooted := true;
        walk id
      | (G.St _ | G.Del _) when succ.(pos.(G.input g id 0)) <> id ->
        (* its version lies on another chain: left unresolved *)
        incr chain;
        rooted := false;
        set_latest id;
        walk id
      | G.St _ | G.Del _ | G.Const _ | G.Binop _ | G.Unop _ | G.Mux
      | G.Ss_out _ | G.Fe _ ->
        ());
  { version; overwriter }

(* The first store/delete touching [offset] at or upstream of [token].
   Stores to other cells of the region are temporally independent: their
   write-backs are ordered per cell by the allocator, so they impose no
   level constraint. *)
let rec walk_version g token offset =
  match G.kind g token with
  | G.St _ | G.Del _ ->
    if Legalize.const_offset g token = offset then token
    else walk_version g (G.input g token 0) offset
  | G.Ss_in _ -> -1
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_out _ | G.Fe _ ->
    errorf "node %d is not a token producer" token

let version_of ctx ch access =
  let g = ctx.cg in
  match ch.version.(ctx.pos.(access)) with
  | -2 -> walk_version g (G.input g access 0) (Legalize.const_offset g access)
  | v -> v

(* Kahn's algorithm over compressed adjacency: the successors of [c] are
   [succ.(start.(c))] to [succ.(start.(c + 1) - 1)], and [indeg] holds the
   in-degrees on entry. Returns how many of the [n] nodes it ordered; the
   others, on or behind a cycle, are left with a positive [indeg]. *)
let kahn ~n ~start ~succ ~indeg ~queue =
  let tail = ref 0 in
  for c = 0 to n - 1 do
    if indeg.(c) = 0 then begin
      queue.(!tail) <- c;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    for j = start.(c) to start.(c + 1) - 1 do
      let d = succ.(j) in
      indeg.(d) <- indeg.(d) - 1;
      if indeg.(d) = 0 then begin
        queue.(!tail) <- d;
        incr tail
      end
    done
  done;
  !tail

(* Per part: its ops in topological order, the position of the first, and
   its distinct external operands in first-use order (members by
   topological position, ports left to right). *)
type layout = {
  part_ops : G.id list array;
  part_first : int array;
  part_inputs : G.id list array;
  op_count : int;
}

let layout ctx (part : partition) =
  let g = ctx.cg and pos = ctx.pos and owner = part.owner in
  let nv = part.parts in
  let ops = Array.make nv [] and first = Array.make nv 0 in
  let n_ops = ref 0 in
  for i = Array.length ctx.order - 1 downto 0 do
    let k = owner.(i) in
    if k >= 0 then begin
      ops.(k) <- ctx.order.(i) :: ops.(k);
      first.(k) <- i;
      incr n_ops
    end
  done;
  let cinputs = Array.make nv [] in
  let seen = Array.make (Array.length owner) (-1) in
  let operands = Intbuf.create () in
  let rec scan k = function
    | [] -> ()
    | m :: rest ->
      for port = 0 to G.arity_of g m - 1 do
        let x = G.input g m port in
        let i = pos.(x) in
        if owner.(i) <> k && seen.(i) <> k then begin
          seen.(i) <- k;
          Intbuf.push operands x
        end
      done;
      scan k rest
  in
  for k = 0 to nv - 1 do
    operands.Intbuf.len <- 0;
    scan k ops.(k);
    let l = ref [] in
    for j = operands.Intbuf.len - 1 downto 0 do
      l := operands.Intbuf.items.(j) :: !l
    done;
    cinputs.(k) <- !l
  done;
  { part_ops = ops; part_first = first; part_inputs = cinputs; op_count = !n_ops }

(* Attaches stores/deletes to a value-op partition, numbers the clusters
   and derives their dependence edges. Protos (clusters before numbering)
   [0, parts) are the partition's parts; the others are pass-through or
   delete clusters, in the order they are created. Every table is an
   array indexed by topological position, proto or cluster id, allocated
   once and reused when a cycle forces another round. *)
let assemble ctx (part : partition) =
  let g = ctx.cg and pos = ctx.pos in
  let nodes = Array.length ctx.order in
  let owner = part.owner and nv = part.parts in
  let lay = layout ctx part in
  let mutators = Intbuf.create () in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.St _ | G.Del _ -> Intbuf.push mutators id
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
      | G.Fe _ ->
        ());
  let n_mut = mutators.Intbuf.len in
  let cap = nv + n_mut in
  let p_root = Array.make cap 0 in
  Array.blit part.roots 0 p_root 0 nv;
  let p_store = Array.make cap (-1) and p_del = Array.make cap (-1) in
  let mut_proto = Array.make n_mut 0 in
  let detached = Bytes.make nodes '\000' in
  let ch = trace_chains ctx in
  let head = Array.make nodes (-1) and link = Array.make cap (-1) in
  let cid_of = Array.make cap 0 and proto_at = Array.make cap 0 in
  (* position -> cluster of the op, store or delete there *)
  let cid_node = Array.make nodes (-1) in
  (* Attach stores: a store joins the cluster producing its value; a store
     of a constant or fetched value gets a pass-through cluster. One store
     per cluster: a second store of the same value must not join the
     producing cluster, since two multi-store clusters can hold interleaved
     positions of one token chain and deadlock the level schedule. The
     extra stores become pass-through clusters that re-emit the value.
     Deletes become memory-only clusters. Returns the number of protos. *)
  let protos = ref 0 in
  let extra j root =
    let p = !protos in
    incr protos;
    p_root.(p) <- root;
    p_store.(p) <- -1;
    p_del.(p) <- -1;
    mut_proto.(j) <- p;
    p
  in
  let attach () =
    Array.fill p_store 0 nv (-1);
    protos := nv;
    for j = 0 to n_mut - 1 do
      let n = mutators.Intbuf.items.(j) in
      match G.kind g n with
      | G.St _ ->
        let value = G.input g n 2 in
        let k =
          if Bytes.get detached pos.(n) = '\000' then owner.(pos.(value)) else -1
        in
        if k >= 0 && part.roots.(k) <> value then
          errorf "store %d reads interior node %d of a cluster" n value
        else if k >= 0 && p_store.(k) < 0 then begin
          p_store.(k) <- n;
          mut_proto.(j) <- k
        end
        else p_store.(extra j value) <- n
      | _ -> p_del.(extra j n) <- n
    done;
    !protos
  in
  (* Deterministic numbering: by minimum topological position over all
     attached nodes, ties in list order [pass-through and delete clusters,
     newest first; parts]. Protos are pushed in ascending index onto the
     front of per-position buckets, which yields exactly that order. *)
  let number np =
    Array.fill head 0 nodes (-1);
    for p = 0 to np - 1 do
      let b =
        if p_del.(p) >= 0 then pos.(p_del.(p))
        else
          let at = if p < nv then lay.part_first.(p) else pos.(p_root.(p)) in
          if p_store.(p) >= 0 then min at pos.(p_store.(p)) else at
      in
      link.(p) <- head.(b);
      head.(b) <- p
    done;
    let c = ref 0 in
    for b = 0 to nodes - 1 do
      let p = ref head.(b) in
      while !p >= 0 do
        cid_of.(!p) <- !c;
        proto_at.(!c) <- !p;
        incr c;
        p := link.(!p)
      done
    done;
    for i = 0 to nodes - 1 do
      let k = owner.(i) in
      if k >= 0 then cid_node.(i) <- cid_of.(k)
    done;
    for j = 0 to n_mut - 1 do
      cid_node.(pos.(mutators.Intbuf.items.(j))) <- cid_of.(mut_proto.(j))
    done
  in
  (* Hard (weight-1) edges, grouped by destination and deduplicated with a
     stamp: operands after their producers, fetches and stores/deletes
     after the version of their cell. *)
  let hard = Intbuf.create () and hard_start = Array.make (cap + 1) 0 in
  let stamp = Array.make cap (-1) in
  let add_hard dst src =
    if src <> dst && stamp.(src) <> dst then begin
      stamp.(src) <- dst;
      Intbuf.push hard src
    end
  in
  let version_edge dst access =
    let v = version_of ctx ch access in
    if v >= 0 then begin
      let src = cid_node.(pos.(v)) in
      if src < 0 then errorf "unclustered store/delete %d" v;
      add_hard dst src
    end
  in
  let input_edge dst input =
    match G.kind g input with
    | G.Binop _ | G.Unop _ | G.Mux ->
      let src = cid_node.(pos.(input)) in
      if src < 0 then errorf "unclustered value op %d" input;
      add_hard dst src
    | G.Fe _ -> version_edge dst input
    | G.Const _ -> ()
    | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
      errorf "node %d cannot be a cluster operand" input
  in
  let rec input_edges dst = function
    | [] -> ()
    | x :: rest ->
      input_edge dst x;
      input_edges dst rest
  in
  let hard_edges np =
    hard.Intbuf.len <- 0;
    Array.fill stamp 0 np (-1);
    for dst = 0 to np - 1 do
      hard_start.(dst) <- hard.Intbuf.len;
      let p = proto_at.(dst) in
      if p < nv then input_edges dst lay.part_inputs.(p)
      else if p_del.(p) < 0 then input_edge dst p_root.(p);
      if p_store.(p) >= 0 then version_edge dst p_store.(p);
      if p_del.(p) >= 0 then version_edge dst p_del.(p)
    done;
    hard_start.(np) <- hard.Intbuf.len
  in
  (* accepted soft (weight-0) edges, threaded by source and by destination *)
  let soft_src = Intbuf.create () and soft_dst = Intbuf.create () in
  let soft_next_out = Intbuf.create () and soft_next_in = Intbuf.create () in
  let soft_out = Array.make cap (-1) and soft_in = Array.make cap (-1) in
  (* Edges by source in ascending destination order, deduplicated with
     weight 1 winning: built from the per-destination lists, hard and soft,
     by one counting pass and one placing pass. *)
  let edge_start = Array.make (cap + 1) 0 in
  let edge_dst = ref [||] and edge_weight = ref [||] in
  let indeg = Array.make cap 0 and queue = Array.make cap 0 in
  let each_edge np f =
    Array.fill stamp 0 np (-1);
    for dst = 0 to np - 1 do
      for j = hard_start.(dst) to hard_start.(dst + 1) - 1 do
        let s = hard.Intbuf.items.(j) in
        stamp.(s) <- dst;
        f s dst 1
      done;
      let e = ref soft_in.(dst) in
      while !e >= 0 do
        let s = soft_src.Intbuf.items.(!e) in
        if stamp.(s) <> dst then begin
          stamp.(s) <- dst;
          f s dst 0
        end;
        e := soft_next_in.Intbuf.items.(!e)
      done
    done
  in
  let source_major np =
    Array.fill edge_start 0 (np + 1) 0;
    each_edge np (fun s _ _ -> edge_start.(s + 1) <- edge_start.(s + 1) + 1);
    for s = 0 to np - 1 do
      edge_start.(s + 1) <- edge_start.(s + 1) + edge_start.(s)
    done;
    let dsts = Array.make edge_start.(np) 0 in
    let weights = Array.make edge_start.(np) 0 in
    let fill = indeg in
    Array.blit edge_start 0 fill 0 np;
    each_edge np (fun s dst w ->
        dsts.(fill.(s)) <- dst;
        weights.(fill.(s)) <- w;
        fill.(s) <- fill.(s) + 1);
    edge_dst := dsts;
    edge_weight := weights
  in
  (* Resumable depth-first search from [search_root] over the hard edges
     (source-major by then) and the soft edges accepted so far:
     [visited.(c) = search] once reached, [stack] holds the frontier. *)
  let visited = Array.make cap (-1) and stack = Array.make cap 0 in
  let search = ref (-1) and search_root = ref (-1) and sp = ref 0 in
  let reached c = visited.(c) = !search in
  let push c =
    if not (reached c) then begin
      visited.(c) <- !search;
      stack.(!sp) <- c;
      incr sp
    end
  in
  let reaches root goal =
    if root <> !search_root then begin
      incr search;
      search_root := root;
      sp := 0;
      push root
    end;
    while !sp > 0 && not (reached goal) do
      decr sp;
      let c = stack.(!sp) in
      for j = edge_start.(c) to edge_start.(c + 1) - 1 do
        push !edge_dst.(j)
      done;
      let e = ref soft_out.(c) in
      while !e >= 0 do
        push soft_dst.Intbuf.items.(!e);
        e := soft_next_out.Intbuf.items.(!e)
      done
    done;
    reached goal
  in
  (* Anti-dependences: a fetch must not be overtaken by the first
     subsequent store/delete to the same cell, so the fetch's consumers
     prefer a level no later than the overwriting cluster's (weight 0). A
     preference that would close a cycle is skipped; the allocator then
     enforces read-before-overwrite with a move deadline. Fetches are taken
     in ascending id, which decides the edges that survive. A fetch's
     consumers may come in any order: they share one destination, and an
     edge into the search root cannot change what the root reaches, so one
     resumable search per run of fetches with the same overwriting cluster
     answers them all. *)
  let cur_fe = ref (-1) and cur_dst = ref (-1) in
  let soft_candidate user _port =
    let src = cid_node.(pos.(user)) and dst = !cur_dst in
    (* a cluster reading the fetch twice is one candidate *)
    if src >= 0 && src <> dst && stamp.(src) <> !cur_fe then begin
      stamp.(src) <- !cur_fe;
      if not (reaches dst src) then begin
        let e = soft_src.Intbuf.len in
        Intbuf.push soft_src src;
        Intbuf.push soft_dst dst;
        Intbuf.push soft_next_out soft_out.(src);
        Intbuf.push soft_next_in soft_in.(dst);
        soft_out.(src) <- e;
        soft_in.(dst) <- e
      end
    end
  in
  let soft_edges np =
    Array.fill stamp 0 np (-1);
    search_root := -1;
    G.iter_ids g (fun fe ->
        match G.kind g fe with
        | G.Fe _ ->
          let ow = ch.overwriter.(pos.(fe)) in
          if ow >= 0 && cid_node.(pos.(ow)) >= 0 then begin
            cur_fe := fe;
            cur_dst := cid_node.(pos.(ow));
            G.iter_consumers_unordered g fe soft_candidate
          end
        | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
        | G.St _ | G.Del _ ->
          ())
  in
  let clear_soft np =
    soft_src.Intbuf.len <- 0;
    soft_dst.Intbuf.len <- 0;
    soft_next_out.Intbuf.len <- 0;
    soft_next_in.Intbuf.len <- 0;
    Array.fill soft_out 0 np (-1);
    Array.fill soft_in 0 np (-1)
  in
  let finish np =
    let clusters =
      Array.init np (fun cid ->
          let p = proto_at.(cid) in
          let stores = if p_store.(p) >= 0 then [ p_store.(p) ] else [] in
          if p < nv then
            { cid; ops = lay.part_ops.(p); root = Some p_root.(p); stores;
              deletes = []; cinputs = lay.part_inputs.(p) }
          else if p_del.(p) >= 0 then
            { cid; ops = []; root = None; stores = []; deletes = [ p_del.(p) ];
              cinputs = [] }
          else
            { cid; ops = []; root = Some p_root.(p); stores; deletes = [];
              cinputs = [ p_root.(p) ] })
    in
    let cluster_of = Hashtbl.create (lay.op_count + n_mut) in
    (* every op, store and delete is in exactly one cluster *)
    let rec bind cid = function
      | [] -> ()
      | id :: rest ->
        Hashtbl.add cluster_of id cid;
        bind cid rest
    in
    Array.iter
      (fun c ->
        bind c.cid c.ops;
        bind c.cid c.stores;
        bind c.cid c.deletes)
      clusters;
    let edges = ref [] in
    for s = np - 1 downto 0 do
      for j = edge_start.(s + 1) - 1 downto edge_start.(s) do
        edges :=
          { src = s; dst = !edge_dst.(j);
            weight = !edge_weight.(j) }
          :: !edges
      done
    done;
    { graph = g; clusters; edges = !edges; cluster_of }
  in
  (* A store fused into the cluster producing its value can close a cycle:
     the store's same-cell version edge points in while the root's data
     edges point out. Every cycle must traverse such a fused store (data
     edges alone mirror the acyclic node graph and the per-cell version
     edges alone form chains), so detaching one store per round into a
     pass-through cluster and reassembling terminates and converges to an
     acyclic cluster DAG. *)
  let rec attempt () =
    let np = attach () in
    number np;
    hard_edges np;
    clear_soft np;
    source_major np;
    soft_edges np;
    source_major np;
    Array.fill indeg 0 np 0;
    for j = 0 to edge_start.(np) - 1 do
      let d = !edge_dst.(j) in
      indeg.(d) <- indeg.(d) + 1
    done;
    if kahn ~n:np ~start:edge_start ~succ:!edge_dst ~indeg ~queue = np
    then finish np
    else begin
      (* the first cluster left on or behind a cycle with ops and a store *)
      let culprit = ref (-1) and c = ref 0 in
      while !culprit < 0 && !c < np do
        let p = proto_at.(!c) in
        if indeg.(!c) > 0 && p < nv && p_store.(p) >= 0 then
          culprit := p_store.(p);
        incr c
      done;
      if !culprit < 0 then
        errorf "cluster dependence graph has an irreducible cycle";
      Bytes.set detached pos.(!culprit) '\001';
      attempt ()
    end
  in
  attempt ()

let c_clusters = Fpfa_obs.Obs.counter "cluster.clusters"
let c_edges = Fpfa_obs.Obs.counter "cluster.edges"

let tally t =
  Fpfa_obs.Obs.add c_clusters (Array.length t.clusters);
  Fpfa_obs.Obs.add c_edges (List.length t.edges);
  t

let run ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx (partition_greedy ctx caps))

let sarkar ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx (partition_sarkar ctx caps))

let unit_clusters g = run ~caps:Arch.unit_alu g

let inputs_of c = c.cinputs

(* Caps per cluster on stamp arrays (only the number of external operands
   matters here, not their order), then Kahn over compressed adjacency:
   any cycle, regardless of weight, is fatal. *)
let validate t caps =
  let g = t.graph in
  let slot = Array.make (G.id_bound g) (-1) and nodes = ref 0 in
  G.iter_ids g (fun id ->
      slot.(id) <- !nodes;
      incr nodes);
  let pr = new_probe g ~slot !nodes in
  let rec add_ops = function
    | [] -> ()
    | id :: rest ->
      probe_add pr id;
      add_ops rest
  in
  Array.iter
    (fun c ->
      if c.ops <> [] then begin
        probe_begin pr;
        add_ops c.ops;
        if not (probe_fits pr caps) then
          errorf "cluster %d violates the ALU data-path constraints" c.cid
      end;
      match (c.ops, c.root, c.deletes) with
      | [], None, [] -> errorf "cluster %d is empty" c.cid
      | _ -> ())
    t.clusters;
  let n = Array.length t.clusters in
  let start = Array.make (n + 1) 0 and indeg = Array.make n 0 in
  let rec count = function
    | [] -> ()
    | e :: rest ->
      start.(e.src + 1) <- start.(e.src + 1) + 1;
      indeg.(e.dst) <- indeg.(e.dst) + 1;
      count rest
  in
  count t.edges;
  for c = 0 to n - 1 do
    start.(c + 1) <- start.(c + 1) + start.(c)
  done;
  let fill = Array.sub start 0 n and succ = Array.make start.(n) 0 in
  let rec place = function
    | [] -> ()
    | e :: rest ->
      succ.(fill.(e.src)) <- e.dst;
      fill.(e.src) <- fill.(e.src) + 1;
      place rest
  in
  place t.edges;
  if kahn ~n ~start ~succ ~indeg ~queue:fill <> n then
    errorf "cluster dependence graph has a cycle"

let pp_cluster g fmt c =
  let op_name id =
    match G.kind g id with
    | G.Binop op -> Op.binop_to_string op
    | G.Unop op -> Op.unop_to_string op
    | G.Mux -> "mux"
    | G.Const v -> string_of_int v
    | G.Fe r -> "FE " ^ r
    | G.St r -> "ST " ^ r
    | G.Del r -> "DEL " ^ r
    | G.Ss_in r -> "ss_in " ^ r
    | G.Ss_out r -> "ss_out " ^ r
  in
  Format.fprintf fmt "Clu%d{%s%s%s}" c.cid
    (String.concat " " (List.map op_name c.ops))
    (match c.stores with
    | [] -> ""
    | stores -> "; st:" ^ String.concat "," (List.map string_of_int stores))
    (match c.deletes with
    | [] -> ""
    | dels -> "; del:" ^ String.concat "," (List.map string_of_int dels))

let to_dot t =
  let g = t.graph in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %S {\n  rankdir=TB;\n  node [shape=box fontsize=10];\n"
       (G.name g));
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=%S];\n" c.cid
           (Format.asprintf "%a" (pp_cluster g) c)))
    t.clusters;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d -> c%d%s;\n" e.src e.dst
           (if e.weight = 0 then " [style=dashed]" else "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

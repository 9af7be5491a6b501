type id = int

module Id_set = Set.Make (Int)
module Id_map = Map.Make (Int)

type kind =
  | Const of int
  | Binop of Op.binop
  | Unop of Op.unop
  | Mux
  | Ss_in of string
  | Ss_out of string
  | Fe of string
  | St of string
  | Del of string

type node = {
  id : id;
  kind : kind;
  inputs : id array;
  order_after : id list;
}

type region_info = { size : int option; implicit : bool }

(* Arena representation. Nodes live in growable flat arrays indexed by id:
   [kinds.(id)], a liveness byte in [alive], and up to three packed input
   ids at [ins.(3*id + port)] (every kind has arity <= 3). Removal
   tombstones the slot — ids are never reused, because the dirty journal
   and the pass engine hold ids across mutations and a recycled id would
   alias a dead node's journal entries.

   The use/def index is id-indexed adjacency: [duse.(p)] holds the data
   edges leaving producer [p] as packed ints [(consumer lsl 2) lor port]
   (arity <= 3 so the port fits in two bits), [ouse.(p)] the consumers
   whose [order_after] lists [p], and [out_uses.(id)] counts named-output
   references. [ord.(id)] stores the node's own order-after list oldest
   first; the public [order_after] view reverses it, preserving the
   newest-first order of the previous representation. Each adjacency array
   has a separate length ([*_len]); spare capacity is recycled through
   [pool], a free list of power-of-two int arrays, so the rewrite-heavy
   passes stop churning the major heap.

   [dpos] is the back-pointer of every input cell: [dpos.(3*cid + port)]
   is the slot of the edge [(cid lsl 2) lor port] in its producer's
   [duse] array. It turns data-edge removal into an O(1) swap-delete
   however many consumers the producer has (a constant or token can feed
   thousands of readers); the swap is the one a scan for the entry would
   perform, so [duse] contents do not depend on it. [writers.(p)] counts
   the data edges of [duse.(p)] that are the token input (port 0) of a
   store or delete, so a reader of a token can learn in O(1) that no
   writer consumes it instead of scanning its fetch siblings. Both are
   materialised ([indexed]) by the first data-edge removal or writer
   query and maintained from then on: graphs that are only built, copied
   or read — raw graphs, snapshots, everything the serve cache holds
   frozen — never carry them. *)
type t = {
  fname : string;
  region_tbl : (string, region_info) Hashtbl.t;
  mutable next_id : id;  (** one past the largest id ever allocated *)
  mutable live : int;
  mutable named_outputs : (string * id) list;
  mutable kinds : kind array;
  mutable alive : Bytes.t;
  mutable ins : int array;  (** 3 cells per slot, [arity kind] in use *)
  mutable ord : int array array;
  mutable ord_len : int array;
  mutable duse : int array array;
  mutable duse_len : int array;
  mutable indexed : bool;  (** [dpos] and [writers] are materialised *)
  mutable dpos : int array;
      (** 3 cells per slot: the [duse] slot of each input edge *)
  mutable writers : int array;
      (** per producer: St/Del consumers reading it on port 0 *)
  mutable ouse : int array array;
  mutable ouse_len : int array;
  mutable out_uses : int array;
  mutable moved : int array;
      (** value-forwarding trail: [moved.(old) = by] after
          [replace_uses old ~by]; -1 otherwise. Rewrites only redirect
          uses to a node computing the same value, so chasing the trail
          from a (possibly removed) node finds where its value lives
          now — what the incremental differ needs to wire a patched
          cone to a minimised graph. *)
  pool : int array list array;  (** bucket [b]: spare arrays of length [4 lsl b] *)
  mutable frozen : bool;
  mutable generation : int;
      (** bumped by every structural mutation; stamps the topo cache *)
  mutable topo_cache : (int * id list) option;
  mutable cone_cache : (int * int array) option;
      (** memoized forward cone hashes ({!Serialize.down_hashes}),
          stamped with the generation like the topo cache; the array is
          shared with readers and must never be mutated *)
  mutable jflags : Bytes.t;
      (** mutation journal, one byte per id: bit 0 = def-dirty (the
          node's own definition — inputs, order edges, existence —
          changed), bit 1 = use-dirty (it lost a use); [Bytes.empty]
          until the first mark *)
  mutable jdef : int array;  (** ids with bit 0 set, in marking order *)
  mutable jdef_len : int;
  mutable juse : int array;  (** ids with bit 1 set, in marking order *)
  mutable juse_len : int;
}

exception Invalid of string

let invalidf fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

let no_ints : int array = [||]
let pool_buckets = 16

let create fname =
  {
    fname;
    region_tbl = Hashtbl.create 8;
    next_id = 0;
    live = 0;
    named_outputs = [];
    kinds = [||];
    alive = Bytes.empty;
    ins = [||];
    ord = [||];
    ord_len = [||];
    duse = [||];
    duse_len = [||];
    indexed = false;
    dpos = [||];
    writers = [||];
    ouse = [||];
    ouse_len = [||];
    out_uses = [||];
    moved = [||];
    pool = Array.make pool_buckets [];
    frozen = false;
    generation = 0;
    topo_cache = None;
    cone_cache = None;
    jflags = Bytes.empty;
    jdef = no_ints;
    jdef_len = 0;
    juse = no_ints;
    juse_len = 0;
  }

let name g = g.fname

let check_mutable g =
  if g.frozen then invalidf "graph %s is frozen" g.fname

let declare_region g region info =
  check_mutable g;
  Hashtbl.replace g.region_tbl region info

let region_info g region = Hashtbl.find_opt g.region_tbl region

let regions g =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) g.region_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let arity = function
  | Const _ | Ss_in _ -> 0
  | Unop _ | Ss_out _ -> 1
  | Binop _ | Fe _ -> 2
  | Mux | St _ -> 3
  | Del _ -> 2

(* {2 Slot storage} *)

let is_alive g id =
  id >= 0 && id < g.next_id && Bytes.unsafe_get g.alive id = '\001'

let mem g id = is_alive g id

let grow g cap' =
  let cap = Array.length g.kinds in
  let kinds' = Array.make cap' Mux in
  Array.blit g.kinds 0 kinds' 0 cap;
  g.kinds <- kinds';
  let alive' = Bytes.make cap' '\000' in
  Bytes.blit g.alive 0 alive' 0 cap;
  g.alive <- alive';
  let ins' = Array.make (3 * cap') 0 in
  Array.blit g.ins 0 ins' 0 (3 * cap);
  g.ins <- ins';
  if g.indexed then begin
    let dpos' = Array.make (3 * cap') 0 in
    Array.blit g.dpos 0 dpos' 0 (3 * cap);
    g.dpos <- dpos';
    let writers' = Array.make cap' 0 in
    Array.blit g.writers 0 writers' 0 cap;
    g.writers <- writers'
  end;
  let copy_adj arrs =
    let a' = Array.make cap' no_ints in
    Array.blit arrs 0 a' 0 cap;
    a'
  in
  let copy_len lens =
    let a' = Array.make cap' 0 in
    Array.blit lens 0 a' 0 cap;
    a'
  in
  g.ord <- copy_adj g.ord;
  g.ord_len <- copy_len g.ord_len;
  g.duse <- copy_adj g.duse;
  g.duse_len <- copy_len g.duse_len;
  g.ouse <- copy_adj g.ouse;
  g.ouse_len <- copy_len g.ouse_len;
  g.out_uses <- copy_len g.out_uses;
  let moved' = Array.make cap' (-1) in
  Array.blit g.moved 0 moved' 0 cap;
  g.moved <- moved'

let ensure_capacity g n =
  let cap = Array.length g.kinds in
  if n > cap then grow g (max 8 (max n (2 * cap)))

(* {2 Adjacency arrays and their free pool} *)

let bucket_of_len len =
  let rec go b l = if l <= 4 then b else go (b + 1) (l lsr 1) in
  go 0 len

let round_pow2 n =
  let r = ref 4 in
  while !r < n do
    r := !r lsl 1
  done;
  !r

let alloc_adj g n =
  let len = round_pow2 n in
  let b = bucket_of_len len in
  if b < pool_buckets then
    match g.pool.(b) with
    | a :: rest ->
      g.pool.(b) <- rest;
      a
    | [] -> Array.make len 0
  else Array.make len 0

let release_adj g a =
  let len = Array.length a in
  if len >= 4 && len land (len - 1) = 0 then begin
    let b = bucket_of_len len in
    if b < pool_buckets then g.pool.(b) <- a :: g.pool.(b)
  end

let adj_push g arrs lens i v =
  let a = arrs.(i) in
  let len = lens.(i) in
  let a =
    if len = Array.length a then begin
      let a' = alloc_adj g (max 4 (2 * len)) in
      Array.blit a 0 a' 0 len;
      release_adj g a;
      arrs.(i) <- a';
      a'
    end
    else a
  in
  a.(len) <- v;
  lens.(i) <- len + 1

let adj_index arrs lens i v =
  let a = arrs.(i) in
  let len = lens.(i) in
  let rec find j = if j >= len then -1 else if a.(j) = v then j else find (j + 1) in
  find 0

let adj_mem arrs lens i v = adj_index arrs lens i v >= 0

(* Unordered delete (the index is sorted on read). No-op when absent. *)
let adj_remove_swap arrs lens i v =
  let j = adj_index arrs lens i v in
  if j >= 0 then begin
    let a = arrs.(i) in
    let len = lens.(i) in
    a.(j) <- a.(len - 1);
    lens.(i) <- len - 1
  end

(* Order-preserving delete (for [ord], whose order is observable). *)
let adj_remove_shift arrs lens i v =
  let j = adj_index arrs lens i v in
  if j >= 0 then begin
    let a = arrs.(i) in
    let len = lens.(i) in
    Array.blit a (j + 1) a j (len - 1 - j);
    lens.(i) <- len - 1
  end

let adj_clear g arrs lens i =
  release_adj g arrs.(i);
  arrs.(i) <- no_ints;
  lens.(i) <- 0

(* {2 Data edges}

   Every data-edge insertion and deletion goes through these two, which
   (once [indexed]) keep the [dpos] back-pointer of input cell
   [3*cid + port] naming the slot of the packed entry
   [(cid lsl 2) lor port] in [duse.(producer)], and the [writers] count
   of the producer. *)

let is_writer_edge kind port =
  port = 0 && match kind with St _ | Del _ -> true | _ -> false

(* One pass over [duse]; only ever run on a mutable graph. *)
let ensure_indexed g =
  if not g.indexed then begin
    let cap = Array.length g.kinds in
    let dpos = Array.make (3 * cap) 0 and writers = Array.make cap 0 in
    for p = 0 to g.next_id - 1 do
      let a = g.duse.(p) in
      for j = 0 to g.duse_len.(p) - 1 do
        let cid = a.(j) lsr 2 and port = a.(j) land 3 in
        dpos.((3 * cid) + port) <- j;
        if is_writer_edge g.kinds.(cid) port then
          writers.(p) <- writers.(p) + 1
      done
    done;
    g.dpos <- dpos;
    g.writers <- writers;
    g.indexed <- true
  end

let duse_push g producer cid port =
  if g.indexed then begin
    g.dpos.((3 * cid) + port) <- g.duse_len.(producer);
    if is_writer_edge g.kinds.(cid) port then
      g.writers.(producer) <- g.writers.(producer) + 1
  end;
  adj_push g g.duse g.duse_len producer ((cid lsl 2) lor port)

(* O(1) unordered delete: swaps the last entry into the edge's slot,
   located through the back-pointer instead of a scan. *)
let duse_remove g producer cid port =
  ensure_indexed g;
  let j = g.dpos.((3 * cid) + port) in
  let a = g.duse.(producer) in
  let last = g.duse_len.(producer) - 1 in
  let e = a.(last) in
  a.(j) <- e;
  g.dpos.((3 * (e lsr 2)) + (e land 3)) <- j;
  g.duse_len.(producer) <- last;
  if is_writer_edge g.kinds.(cid) port then
    g.writers.(producer) <- g.writers.(producer) - 1

(* {2 Access} *)

let node_exn g id =
  if not (is_alive g id) then invalidf "node %d does not exist" id

let kind g id =
  node_exn g id;
  g.kinds.(id)

let arity_of g id = arity (kind g id)

let input g id port =
  node_exn g id;
  if port < 0 || port >= arity g.kinds.(id) then
    invalidf "node %d has no input port %d" id port;
  g.ins.((3 * id) + port)

let inputs g id =
  node_exn g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  let rec build p acc =
    if p < 0 then acc else build (p - 1) (g.ins.(base + p) :: acc)
  in
  build (a - 1) []

(* Newest edge first, matching the prepend order of the old record-based
   representation ([ord] stores oldest first). *)
let order_after g id =
  node_exn g id;
  let a = g.ord.(id) in
  let len = g.ord_len.(id) in
  let rec build j acc = if j >= len then acc else build (j + 1) (a.(j) :: acc) in
  build 0 []

let preds g id = inputs g id @ order_after g id

let iter_preds g id f =
  node_exn g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  for p = 0 to a - 1 do
    f g.ins.(base + p)
  done;
  let oa = g.ord.(id) in
  for j = 0 to g.ord_len.(id) - 1 do
    f oa.(j)
  done

let node g id =
  node_exn g id;
  let k = g.kinds.(id) in
  let a = arity k in
  let base = 3 * id in
  { id; kind = k; inputs = Array.init a (fun p -> g.ins.(base + p));
    order_after = order_after g id }

let check_ref g id =
  if not (is_alive g id) then invalidf "dangling node reference %d" id

let id_bound g = g.next_id

(* {2 Journal plumbing} *)

let touch g = g.generation <- g.generation + 1

(* The journal is a flag byte per id plus one stack per flag: marking an
   id tests and sets its bit and pushes the id only on the 0 -> 1
   transition, so a mark is O(1), idempotent and allocates only when a
   stack or the flag bytes grow. Draining clears the bits of the stacked
   ids alone, never the whole flag array. Ids outside [0, next_id) name
   no node and are not journalled. *)
let journal_reserve g id =
  let len = Bytes.length g.jflags in
  if id >= len then begin
    let b = Bytes.make (max (id + 1) (max 16 (Array.length g.kinds))) '\000' in
    Bytes.blit g.jflags 0 b 0 len;
    g.jflags <- b
  end

let stack_push a len id =
  let a =
    if len < Array.length a then a
    else begin
      let a' = Array.make (max 16 (2 * len)) 0 in
      Array.blit a 0 a' 0 len;
      a'
    end
  in
  Array.unsafe_set a len id;
  a

let mark g bit id =
  if id >= 0 && id < g.next_id then begin
    journal_reserve g id;
    let f = Char.code (Bytes.unsafe_get g.jflags id) in
    if f land bit = 0 then begin
      Bytes.unsafe_set g.jflags id (Char.unsafe_chr (f lor bit));
      if bit = 1 then begin
        g.jdef <- stack_push g.jdef g.jdef_len id;
        g.jdef_len <- g.jdef_len + 1
      end
      else begin
        g.juse <- stack_push g.juse g.juse_len id;
        g.juse_len <- g.juse_len + 1
      end
    end
  end

let mark_def g id = mark g 1 id
let mark_use g id = mark g 2 id

(* Empties both stacks, clearing only the bits of the stacked ids. *)
let journal_reset g =
  for j = 0 to g.jdef_len - 1 do
    let id = Array.unsafe_get g.jdef j in
    let f = Char.code (Bytes.unsafe_get g.jflags id) in
    Bytes.unsafe_set g.jflags id (Char.unsafe_chr (f land 2))
  done;
  for j = 0 to g.juse_len - 1 do
    let id = Array.unsafe_get g.juse j in
    let f = Char.code (Bytes.unsafe_get g.jflags id) in
    Bytes.unsafe_set g.jflags id (Char.unsafe_chr (f land 1))
  done;
  g.jdef_len <- 0;
  g.juse_len <- 0

let drain_dirty g =
  let to_set a len =
    let s = ref Id_set.empty in
    for j = 0 to len - 1 do
      s := Id_set.add a.(j) !s
    done;
    !s
  in
  let d = to_set g.jdef g.jdef_len and u = to_set g.juse g.juse_len in
  journal_reset g;
  (d, u)

(* In-place ascending sort of [a.(0 .. len-1)]: insertion sort for the
   few ids a typical rewrite dirties, heapsort beyond, so a drain never
   allocates whatever the fan-out of the rewrite. *)
let sort_prefix a len =
  if len <= 16 then
    for i = 1 to len - 1 do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get a !j > v do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done
  else begin
    let rec sift i n =
      let l = (2 * i) + 1 in
      if l < n then begin
        let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(i) then begin
          let t = a.(c) in
          a.(c) <- a.(i);
          a.(i) <- t;
          sift c n
        end
      end
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for e = len - 1 downto 1 do
      let t = a.(e) in
      a.(e) <- a.(0);
      a.(0) <- t;
      sift 0 e
    done
  end

let drain_dirty_iter g ~def ~use =
  let dlen = g.jdef_len and ulen = g.juse_len in
  sort_prefix g.jdef dlen;
  sort_prefix g.juse ulen;
  journal_reset g;
  (* The stacks keep their contents past the reset lengths; the
     callbacks must not mutate the graph, so nothing overwrites them. *)
  for j = 0 to dlen - 1 do
    def (Array.unsafe_get g.jdef j)
  done;
  for j = 0 to ulen - 1 do
    use (Array.unsafe_get g.juse j)
  done

let clear_journal g =
  g.jflags <- Bytes.empty;
  g.jdef <- no_ints;
  g.jdef_len <- 0;
  g.juse <- no_ints;
  g.juse_len <- 0

let generation g = g.generation

let cone_cache g =
  match g.cone_cache with
  | Some (gen, h) when gen = g.generation -> Some h
  | Some _ | None -> None

let set_cone_cache g h = g.cone_cache <- Some (g.generation, h)

let consumers_of g id =
  if id < 0 || id >= g.next_id then []
  else begin
    let a = g.duse.(id) in
    let len = g.duse_len.(id) in
    let entries = Array.sub a 0 len in
    Array.sort Int.compare entries;
    Array.fold_right (fun e acc -> (e lsr 2, e land 3) :: acc) entries []
  end

let order_successors g id =
  if id < 0 || id >= g.next_id then []
  else begin
    let a = g.ouse.(id) in
    let len = g.ouse_len.(id) in
    let entries = Array.sub a 0 len in
    Array.sort Int.compare entries;
    Array.to_list entries
  end

let use_count g id =
  if id < 0 || id >= g.next_id then 0
  else g.duse_len.(id) + g.out_uses.(id)

let data_use_count g id =
  if id < 0 || id >= g.next_id then 0 else g.duse_len.(id)

let writer_count g id =
  if id < 0 || id >= g.next_id then 0
  else if not g.frozen then begin
    ensure_indexed g;
    g.writers.(id)
  end
  else begin
    (* a frozen graph is shared read-only: count from the use index *)
    let a = g.duse.(id) and c = ref 0 in
    for j = 0 to g.duse_len.(id) - 1 do
      if is_writer_edge g.kinds.(a.(j) lsr 2) (a.(j) land 3) then incr c
    done;
    !c
  end

(* The order-edge index has set semantics on both sides, so [after] is in
   [ord.(id)] exactly when [id] is in [ouse.(after)]: scan the shorter. *)
let has_order g id ~after =
  if id < 0 || id >= g.next_id || after < 0 || after >= g.next_id then false
  else if g.ord_len.(id) <= g.ouse_len.(after) then
    adj_mem g.ord g.ord_len id after
  else adj_mem g.ouse g.ouse_len after id

let iter_inputs g id f =
  node_exn g id;
  let base = 3 * id in
  for p = 0 to arity g.kinds.(id) - 1 do
    f g.ins.(base + p)
  done

(* Ascending enumeration of the first [len] entries of [a], in place for
   short runs (the common degree): entries are distinct (a packed data
   edge lives in exactly one slot; the order index has set semantics), so
   repeatedly selecting the least entry above the previous one enumerates
   them in order. Longer runs are read from a sorted copy. The two
   callers inline the loop rather than share a closure-taking helper, so
   the short path allocates nothing. *)
let least_above a len prev =
  let m = ref max_int in
  for j = 0 to len - 1 do
    let v = Array.unsafe_get a j in
    if v > prev && v < !m then m := v
  done;
  !m

let sorted_copy a len =
  let s = Array.sub a 0 len in
  Array.sort Int.compare s;
  s

let iter_consumers g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.duse.(id) and len = g.duse_len.(id) in
    if len <= 16 then begin
      let prev = ref min_int in
      for _ = 1 to len do
        let e = least_above a len !prev in
        prev := e;
        f (e lsr 2) (e land 3)
      done
    end
    else Array.iter (fun e -> f (e lsr 2) (e land 3)) (sorted_copy a len)
  end

let iter_order_successors g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.ouse.(id) and len = g.ouse_len.(id) in
    if len <= 16 then begin
      let prev = ref min_int in
      for _ = 1 to len do
        let e = least_above a len !prev in
        prev := e;
        f e
      done
    end
    else Array.iter f (sorted_copy a len)
  end

let iter_consumers_unordered g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.duse.(id) in
    for j = 0 to g.duse_len.(id) - 1 do
      let e = a.(j) in
      f (e lsr 2) (e land 3)
    done
  end

(* {2 Construction} *)

let add g kind inputs =
  check_mutable g;
  if List.length inputs <> arity kind then
    invalidf "wrong input arity for node (expected %d, got %d)" (arity kind)
      (List.length inputs);
  List.iter (check_ref g) inputs;
  ensure_capacity g (g.next_id + 1);
  let id = g.next_id in
  g.next_id <- id + 1;
  g.live <- g.live + 1;
  Bytes.set g.alive id '\001';
  g.kinds.(id) <- kind;
  List.iteri
    (fun port producer ->
      g.ins.((3 * id) + port) <- producer;
      duse_push g producer id port)
    inputs;
  touch g;
  mark_def g id;
  id

let add_order g id ~after =
  check_ref g after;
  node_exn g id;
  if after <> id && not (adj_mem g.ord g.ord_len id after) then begin
    check_mutable g;
    adj_push g g.ord g.ord_len id after;
    (* Set semantics on the reverse side, mirroring the Hashtbl.replace of
       the old index: never index the same order edge twice. *)
    if not (adj_mem g.ouse g.ouse_len after id) then
      adj_push g g.ouse g.ouse_len after id;
    touch g;
    mark_def g id
  end

let remove_order g id ~after =
  node_exn g id;
  if adj_mem g.ord g.ord_len id after then begin
    check_mutable g;
    adj_remove_shift g.ord g.ord_len id after;
    adj_remove_swap g.ouse g.ouse_len after id;
    touch g;
    mark_def g id
  end

let remove_order_all g id ~after =
  List.iter (fun a -> remove_order g id ~after:a) after

let set_output g output_name id =
  check_mutable g;
  check_ref g id;
  (match List.assoc_opt output_name g.named_outputs with
  | Some old ->
    if g.out_uses.(old) > 0 then g.out_uses.(old) <- g.out_uses.(old) - 1;
    mark_use g old
  | None -> ());
  g.out_uses.(id) <- g.out_uses.(id) + 1;
  g.named_outputs <-
    (output_name, id) :: List.remove_assoc output_name g.named_outputs;
  touch g

let outputs g =
  List.sort (fun (a, _) (b, _) -> String.compare a b) g.named_outputs

(* {2 Mutation} *)

let set_inputs g id inputs =
  check_mutable g;
  node_exn g id;
  let a = arity g.kinds.(id) in
  if List.length inputs <> a then
    invalidf "set_inputs: arity change on node %d" id;
  List.iter (check_ref g) inputs;
  let base = 3 * id in
  for port = 0 to a - 1 do
    let old = g.ins.(base + port) in
    duse_remove g old id port;
    mark_use g old
  done;
  List.iteri
    (fun port producer ->
      g.ins.(base + port) <- producer;
      duse_push g producer id port)
    inputs;
  touch g;
  mark_def g id

let replace_uses g old ~by =
  check_mutable g;
  check_ref g by;
  if by = old then begin
    (* Degenerate self-replacement: no structural change, but journal and
       generation behave exactly like the general case. *)
    List.iter (fun (cid, _) -> mark_def g cid) (consumers_of g old);
    List.iter (fun cid -> mark_def g cid) (order_successors g old);
    touch g;
    mark_use g old
  end
  else begin
    (* Data edges: the index lists exactly the affected (consumer, port)
       pairs, so this is O(degree of [old]), not O(graph). The whole
       [duse.(old)] bucket moves, entry by entry, to [duse.(by)]. *)
    (if old >= 0 && old < g.next_id then begin
       let a = g.duse.(old) in
       let len = g.duse_len.(old) in
       for j = 0 to len - 1 do
         let e = a.(j) in
         let cid = e lsr 2 and port = e land 3 in
         g.ins.((3 * cid) + port) <- by;
         duse_push g by cid port;
         mark_def g cid
       done;
       if g.indexed then g.writers.(old) <- 0;
       if len > 0 then adj_clear g g.duse g.duse_len old
     end);
    (* Order edges: re-point, deduplicate, and never create a self edge. *)
    (if old >= 0 && old < g.next_id then begin
       let a = g.ouse.(old) in
       let len = g.ouse_len.(old) in
       for j = 0 to len - 1 do
         let cid = a.(j) in
         adj_remove_shift g.ord g.ord_len cid old;
         if by <> cid && not (adj_mem g.ord g.ord_len cid by) then begin
           adj_push g g.ord g.ord_len cid by;
           if not (adj_mem g.ouse g.ouse_len by cid) then
             adj_push g g.ouse g.ouse_len by cid
         end;
         mark_def g cid
       done;
       if len > 0 then adj_clear g g.ouse g.ouse_len old
     end);
    (if old >= 0 && old < g.next_id && g.out_uses.(old) > 0 then begin
       g.named_outputs <-
         List.map
           (fun (k, v) -> (k, if v = old then by else v))
           g.named_outputs;
       g.out_uses.(by) <- g.out_uses.(by) + g.out_uses.(old);
       g.out_uses.(old) <- 0
     end);
    if old >= 0 && old < g.next_id then g.moved.(old) <- by;
    touch g;
    mark_use g old
  end

(* Chases the [replace_uses] trail from [id] to the node now computing
   its value: [id] itself when it is still live, otherwise the end of
   the moved chain if that node is live, [None] when the value was
   dropped (the node or its final forwardee was removed outright, e.g.
   by DCE). The fuel bound is defensive — each hop was recorded at a
   [replace_uses] whose target was live at the time, so a cycle cannot
   form, but a bound keeps a corrupted trail from hanging the caller. *)
let forwarded_to g id =
  if is_alive g id then Some id
  else begin
    let rec chase id fuel =
      if fuel = 0 then None
      else if id < 0 || id >= g.next_id then None
      else if is_alive g id then Some id
      else
        match g.moved.(id) with -1 -> None | next -> chase next (fuel - 1)
    in
    chase id g.next_id
  end

let clear_order g id =
  node_exn g id;
  if g.ord_len.(id) > 0 then begin
    check_mutable g;
    let a = g.ord.(id) in
    for j = 0 to g.ord_len.(id) - 1 do
      adj_remove_swap g.ouse g.ouse_len a.(j) id
    done;
    adj_clear g g.ord g.ord_len id;
    touch g;
    mark_def g id
  end

let drop_order_references g id =
  if id >= 0 && id < g.next_id && g.ouse_len.(id) > 0 then begin
    check_mutable g;
    let a = g.ouse.(id) in
    for j = 0 to g.ouse_len.(id) - 1 do
      let sid = a.(j) in
      adj_remove_shift g.ord g.ord_len sid id;
      mark_def g sid
    done;
    adj_clear g g.ouse g.ouse_len id;
    touch g
  end

let remove g id =
  check_mutable g;
  if use_count g id > 0 then invalidf "removing node %d which still has uses" id;
  node_exn g id;
  (* Drop order edges pointing at the removed node. *)
  drop_order_references g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  for port = 0 to a - 1 do
    let producer = g.ins.(base + port) in
    duse_remove g producer id port;
    mark_use g producer
  done;
  let oa = g.ord.(id) in
  for j = 0 to g.ord_len.(id) - 1 do
    adj_remove_swap g.ouse g.ouse_len oa.(j) id
  done;
  adj_clear g g.ord g.ord_len id;
  adj_clear g g.duse g.duse_len id;
  adj_clear g g.ouse g.ouse_len id;
  Bytes.set g.alive id '\000';
  g.live <- g.live - 1;
  touch g

(* {2 Freezing} *)

let frozen g = g.frozen

(* {2 Traversal} *)

let iter_ids g f =
  for id = 0 to g.next_id - 1 do
    if Bytes.unsafe_get g.alive id = '\001' then f id
  done

let node_ids g =
  let acc = ref [] in
  for id = g.next_id - 1 downto 0 do
    if Bytes.unsafe_get g.alive id = '\001' then acc := id :: !acc
  done;
  !acc

let node_count g = g.live

let iter g f = iter_ids g (fun id -> f (node g id))

let fold g ~init ~f =
  let acc = ref init in
  iter_ids g (fun id -> acc := f !acc (node g id));
  !acc

let consumers g =
  let tbl = Hashtbl.create (max 16 g.live) in
  iter_ids g (fun cid ->
      let a = arity g.kinds.(cid) in
      let base = 3 * cid in
      for port = 0 to a - 1 do
        let producer = g.ins.(base + port) in
        let old =
          match Hashtbl.find_opt tbl producer with Some l -> l | None -> []
        in
        Hashtbl.replace tbl producer ((cid, port) :: old)
      done);
  tbl

let find_region_node g region ~test =
  let found = ref None in
  (try
     iter_ids g (fun id ->
         if test g.kinds.(id) region then begin
           found := Some id;
           raise Exit
         end)
   with Exit -> ());
  !found

let ss_in_of g region =
  find_region_node g region ~test:(fun kind r ->
      match kind with Ss_in r' -> String.equal r r' | _ -> false)

let ss_out_of g region =
  find_region_node g region ~test:(fun kind r ->
      match kind with Ss_out r' -> String.equal r r' | _ -> false)

(* {2 Topological order} *)

(* Kahn's algorithm over the flat arrays: indegrees and a duplicate-edge
   stamp in id-indexed int arrays, successors read straight from the
   use/def adjacency, and a binary min-heap on ids so the resulting order
   is deterministic (ascending-id tie-break, as before). The result is
   cached and stamped with the generation counter: read-only phases
   (evaluation, clustering, serialisation, range analysis) reuse one order
   instead of re-running Kahn's algorithm per call. *)
let compute_topo_order g =
  if g.live = 0 then []
  else begin
    let n = g.next_id in
    let indeg = Array.make n 0 in
    (* stamp.(p) = consumer currently being counted: dedups parallel edges
       (same producer on two ports, or a data edge doubled by an order
       edge) so each unique predecessor contributes one indegree. *)
    let stamp = Array.make n (-1) in
    for cid = 0 to n - 1 do
      if Bytes.unsafe_get g.alive cid = '\001' then begin
        let a = arity (Array.unsafe_get g.kinds cid) in
        let base = 3 * cid in
        for port = 0 to a - 1 do
          let p = Array.unsafe_get g.ins (base + port) in
          if Array.unsafe_get stamp p <> cid then begin
            Array.unsafe_set stamp p cid;
            Array.unsafe_set indeg cid (Array.unsafe_get indeg cid + 1)
          end
        done;
        let oa = Array.unsafe_get g.ord cid in
        for j = 0 to Array.unsafe_get g.ord_len cid - 1 do
          let p = Array.unsafe_get oa j in
          if Array.unsafe_get stamp p <> cid then begin
            Array.unsafe_set stamp p cid;
            Array.unsafe_set indeg cid (Array.unsafe_get indeg cid + 1)
          end
        done
      end
    done;
    let heap = Array.make g.live 0 in
    let hlen = ref 0 in
    let push v =
      let i = ref !hlen in
      incr hlen;
      heap.(!i) <- v;
      let continue = ref true in
      while !continue && !i > 0 do
        let p = (!i - 1) / 2 in
        if heap.(p) > heap.(!i) then begin
          let tmp = heap.(p) in
          heap.(p) <- heap.(!i);
          heap.(!i) <- tmp;
          i := p
        end
        else continue := false
      done
    in
    let pop () =
      let top = heap.(0) in
      decr hlen;
      heap.(0) <- heap.(!hlen);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !hlen && heap.(l) < heap.(!s) then s := l;
        if r < !hlen && heap.(r) < heap.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = heap.(!s) in
          heap.(!s) <- heap.(!i);
          heap.(!i) <- tmp;
          i := !s
        end
      done;
      top
    in
    for id = 0 to n - 1 do
      if Bytes.unsafe_get g.alive id = '\001' && indeg.(id) = 0 then push id
    done;
    (* Second stamp pass: decrement each unique successor exactly once per
       popped producer. *)
    let stamp2 = Array.make n (-1) in
    let out = ref [] in
    let count = ref 0 in
    while !hlen > 0 do
      let id = pop () in
      out := id :: !out;
      incr count;
      let da = g.duse.(id) in
      for j = 0 to g.duse_len.(id) - 1 do
        let c = Array.unsafe_get da j lsr 2 in
        if Array.unsafe_get stamp2 c <> id then begin
          Array.unsafe_set stamp2 c id;
          let deg = Array.unsafe_get indeg c - 1 in
          Array.unsafe_set indeg c deg;
          if deg = 0 then push c
        end
      done;
      let oa = g.ouse.(id) in
      for j = 0 to g.ouse_len.(id) - 1 do
        let c = Array.unsafe_get oa j in
        if Array.unsafe_get stamp2 c <> id then begin
          Array.unsafe_set stamp2 c id;
          let deg = Array.unsafe_get indeg c - 1 in
          Array.unsafe_set indeg c deg;
          if deg = 0 then push c
        end
      done
    done;
    if !count <> g.live then invalidf "graph %s has a cycle" g.fname;
    List.rev !out
  end

let topo_order g =
  match g.topo_cache with
  | Some (gen, order) when gen = g.generation -> order
  | Some _ | None ->
    let order = compute_topo_order g in
    g.topo_cache <- Some (g.generation, order);
    order

let freeze g =
  if not g.frozen then begin
    (* Fill the topo cache first: frozen readers on other domains then
       share one precomputed order and never write to the cache. *)
    ignore (topo_order g);
    (* No mutation can follow, so the removal index is dead weight —
       and the serve cache keeps every graph it holds frozen. *)
    g.indexed <- false;
    g.dpos <- [||];
    g.writers <- [||];
    clear_journal g;
    g.frozen <- true
  end

(* Longest-path depth per id, over the topological order. *)
let depths g =
  let d = Array.make (max 1 g.next_id) 0 in
  List.iter
    (fun id ->
      let m = ref 0 in
      let base = 3 * id in
      for port = 0 to arity g.kinds.(id) - 1 do
        let p = g.ins.(base + port) in
        if d.(p) + 1 > !m then m := d.(p) + 1
      done;
      let oa = g.ord.(id) in
      for j = 0 to g.ord_len.(id) - 1 do
        if d.(oa.(j)) + 1 > !m then m := d.(oa.(j)) + 1
      done;
      d.(id) <- !m)
    (topo_order g);
  d

let depth g =
  let d = depths g in
  fun id ->
    if is_alive g id then d.(id) else invalidf "depth: unknown node %d" id

let produces_token = function
  | Ss_in _ | St _ | Del _ -> true
  | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ -> false

let produces_value = function
  | Const _ | Binop _ | Unop _ | Mux | Fe _ -> true
  | Ss_in _ | Ss_out _ | St _ | Del _ -> false

let token_region g id =
  match kind g id with
  | Ss_in r | St r | Del r -> Some r
  | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ -> None

(* Recomputes the use/def index from the forward structure and compares it
   with the maintained adjacency. O(V + E) with no per-edge allocation on
   a consistent graph; used by [validate], the verifier in lib/analysis
   and the index-invariant tests to catch any mutation path that forgets
   an index update. Accumulates every divergence so the
   diagnostic-producing callers report them all in one run, in a fixed
   order: data edges (unindexed producers in forward order, then misses
   by consumer and port), the data-edge total, back-pointers and writer
   counts, order edges likewise, then named outputs.

   A data edge's expected producer is a function of its input cell
   ([ins.(3*cid + port)]), so one pass over every [duse] list stamps the
   cells whose entry sits in the right producer's list, and a second
   pass over the cells reports the unstamped ones. An order edge has no
   cell, so the expected edges are grouped by producer with a counting
   sort (ascending consumer within a group) and compared with each
   producer's [ouse] list through a per-consumer multiplicity stamp, a
   multiset difference (a duplicated [ord] entry is one more expected
   edge). *)
let index_errors g =
  let errs = ref [] in
  let errf fmt = Format.kasprintf (fun msg -> errs := msg :: !errs) fmt in
  let n = g.next_id in
  let exp_data = ref 0 in
  for cid = 0 to n - 1 do
    if is_alive g cid then begin
      let base = 3 * cid in
      for port = 0 to arity g.kinds.(cid) - 1 do
        incr exp_data;
        let p = g.ins.(base + port) in
        if p < 0 || p >= n then
          errf "use/def index misses data edge %d -> (%d, port %d)" p cid port
      done
    end
  done;
  let found = Bytes.make (3 * n) '\000' in
  let idx_data = ref 0 in
  for p = 0 to n - 1 do
    let a = g.duse.(p) and len = g.duse_len.(p) in
    idx_data := !idx_data + len;
    for j = 0 to len - 1 do
      let e = Array.unsafe_get a j in
      let cid = e lsr 2 and port = e land 3 in
      if cid < n && port < 3 then begin
        let cell = (3 * cid) + port in
        if g.ins.(cell) = p then Bytes.unsafe_set found cell '\001'
      end
    done
  done;
  for cid = 0 to n - 1 do
    if is_alive g cid then begin
      let base = 3 * cid in
      for port = 0 to arity g.kinds.(cid) - 1 do
        let p = g.ins.(base + port) in
        if p >= 0 && p < n && Bytes.unsafe_get found (base + port) = '\000'
        then
          errf "use/def index misses data edge %d -> (%d, port %d)" p cid port
      done
    end
  done;
  if !idx_data <> !exp_data then
    errf "use/def index has stale data edges (%d indexed, %d real)" !idx_data
      !exp_data;
  (* Once materialised, every indexed data edge's back-pointer names its
     own slot, and each producer's writer count matches its edges. *)
  if g.indexed then
    for p = 0 to n - 1 do
      let a = g.duse.(p) in
      let w = ref 0 in
      for j = 0 to g.duse_len.(p) - 1 do
        let cid = a.(j) lsr 2 and port = a.(j) land 3 in
        if cid < n then begin
          if is_writer_edge g.kinds.(cid) port then incr w;
          if g.dpos.((3 * cid) + port) <> j then
            errf
              "use/def index back-pointer of (%d, port %d) is %d, not slot \
               %d of %d"
              cid port
              g.dpos.((3 * cid) + port)
              j p
        end
      done;
      if g.writers.(p) <> !w then
        errf "use/def index counts %d writers of %d, not %d" g.writers.(p) p !w
    done;
  (* [start.(p)] .. [start.(p+1) - 1]: the expected order edges of [p]. *)
  let start = Array.make (n + 1) 0 in
  let exp_order = ref 0 in
  for cid = 0 to n - 1 do
    if is_alive g cid then begin
      let oa = g.ord.(cid) in
      for j = 0 to g.ord_len.(cid) - 1 do
        incr exp_order;
        let p = oa.(j) in
        if p >= 0 && p < n then start.(p + 1) <- start.(p + 1) + 1
        else errf "use/def index misses order edge %d -> %d" p cid
      done
    end
  done;
  for p = 1 to n do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let grouped = Array.make start.(n) 0 in
  let cursor = Array.sub start 0 (max 1 n) in
  for cid = 0 to n - 1 do
    if is_alive g cid then begin
      let oa = g.ord.(cid) in
      for j = 0 to g.ord_len.(cid) - 1 do
        let p = oa.(j) in
        if p >= 0 && p < n then begin
          grouped.(cursor.(p)) <- cid;
          cursor.(p) <- cursor.(p) + 1
        end
      done
    end
  done;
  let stamp = Array.make (max 1 n) (-1) and mult = Array.make (max 1 n) 0 in
  let order_misses = ref [] in
  let idx_order = ref 0 in
  for p = 0 to n - 1 do
    let a = g.ouse.(p) and len = g.ouse_len.(p) in
    idx_order := !idx_order + len;
    for j = 0 to len - 1 do
      let c = Array.unsafe_get a j in
      if c >= 0 && c < n then begin
        if stamp.(c) <> p then begin
          stamp.(c) <- p;
          mult.(c) <- 0
        end;
        mult.(c) <- mult.(c) + 1
      end
    done;
    for k = start.(p) to start.(p + 1) - 1 do
      let cid = grouped.(k) in
      if stamp.(cid) = p && mult.(cid) > 0 then mult.(cid) <- mult.(cid) - 1
      else order_misses := (cid, p) :: !order_misses
    done
  done;
  List.iter
    (fun (cid, p) -> errf "use/def index misses order edge %d -> %d" p cid)
    (List.sort compare !order_misses);
  if !idx_order <> !exp_order then
    errf "use/def index has stale order edges (%d indexed, %d real)"
      !idx_order !exp_order;
  (* Named outputs are few: a small table of expected counts. *)
  let expect_outputs = Hashtbl.create 8 in
  List.iter
    (fun (_, v) ->
      Hashtbl.replace expect_outputs v
        (1 + match Hashtbl.find_opt expect_outputs v with Some c -> c | None -> 0))
    g.named_outputs;
  Hashtbl.iter
    (fun id c ->
      let counted = if id >= 0 && id < n then g.out_uses.(id) else 0 in
      if counted <> c then
        errf "use/def index miscounts named-output references of node %d" id)
    expect_outputs;
  for id = 0 to n - 1 do
    if g.out_uses.(id) <> 0
       && Hashtbl.find_opt expect_outputs id <> Some g.out_uses.(id)
    then errf "use/def index has stale named-output count for node %d" id
  done;
  List.rev !errs

let check_index g =
  match index_errors g with [] -> () | msg :: _ -> raise (Invalid msg)

(* Port typing: for each node kind, which input ports expect a token of the
   node's own region (port 0 of Fe/St/Del/Ss_out) and which expect values.
   Reads the arena directly; the checks and their order per node are those
   of a walk over {!node} records: dangling inputs in port order, dangling
   order edges newest first, then port typing. *)
let validate g =
  let check_region id region =
    if not (Hashtbl.mem g.region_tbl region) then
      invalidf "node %d references undeclared region %s" id region
  in
  let expect_value id port =
    if not (produces_value g.kinds.(g.ins.((3 * id) + port))) then
      invalidf "node %d: input port %d expects a value, got a token" id port
  in
  let expect_token id port region =
    match g.kinds.(g.ins.((3 * id) + port)) with
    | Ss_in r | St r | Del r ->
      if not (String.equal r region) then
        invalidf "node %d: token of region %s flows into region %s" id r region
    | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ ->
      invalidf "node %d: input port %d expects a statespace token" id port
  in
  let ss_nodes = ref 0 in
  for id = 0 to g.next_id - 1 do
    if Bytes.unsafe_get g.alive id = '\001' then begin
      let base = 3 * id in
      for port = 0 to arity g.kinds.(id) - 1 do
        let input = g.ins.(base + port) in
        if not (mem g input) then
          invalidf "node %d: dangling input %d" id input
      done;
      let oa = g.ord.(id) in
      for j = g.ord_len.(id) - 1 downto 0 do
        if not (mem g oa.(j)) then
          invalidf "node %d: dangling order edge %d" id oa.(j)
      done;
      match g.kinds.(id) with
      | Const _ -> ()
      | Binop _ ->
        expect_value id 0;
        expect_value id 1
      | Unop _ -> expect_value id 0
      | Mux ->
        expect_value id 0;
        expect_value id 1;
        expect_value id 2
      | Ss_in region ->
        incr ss_nodes;
        check_region id region
      | Ss_out region ->
        incr ss_nodes;
        check_region id region;
        expect_token id 0 region
      | Fe region ->
        check_region id region;
        expect_token id 0 region;
        expect_value id 1
      | St region ->
        check_region id region;
        expect_token id 0 region;
        expect_value id 1;
        expect_value id 2
      | Del region ->
        check_region id region;
        expect_token id 0 region;
        expect_value id 1
    end
  done;
  (* At most one Ss_in / Ss_out per region. *)
  if !ss_nodes > 0 then begin
    let count_kind test =
      let tbl = Hashtbl.create 8 in
      iter_ids g (fun id ->
          match test g.kinds.(id) with
          | Some region ->
            let old =
              match Hashtbl.find_opt tbl region with Some c -> c | None -> 0
            in
            Hashtbl.replace tbl region (old + 1)
          | None -> ());
      tbl
    in
    let ins = count_kind (function Ss_in r -> Some r | _ -> None) in
    let outs = count_kind (function Ss_out r -> Some r | _ -> None) in
    Hashtbl.iter
      (fun region c ->
        if c > 1 then invalidf "region %s has %d Ss_in nodes" region c)
      ins;
    Hashtbl.iter
      (fun region c ->
        if c > 1 then invalidf "region %s has %d Ss_out nodes" region c)
      outs
  end;
  List.iter
    (fun (oname, id) ->
      if not (mem g id) then invalidf "named output %s is dangling" oname;
      if not (produces_value g.kinds.(id)) then
        invalidf "named output %s is not a value" oname)
    g.named_outputs;
  check_index g;
  (* Acyclicity (raises on cycles). *)
  ignore (topo_order g)

let copy g =
  let n = g.next_id in
  let copy_adj arrs lens =
    Array.init n (fun i ->
        if lens.(i) = 0 then no_ints else Array.sub arrs.(i) 0 lens.(i))
  in
  {
    fname = g.fname;
    region_tbl = Hashtbl.copy g.region_tbl;
    next_id = n;
    live = g.live;
    named_outputs = g.named_outputs;
    kinds = Array.sub g.kinds 0 n;
    alive = Bytes.sub g.alive 0 n;
    ins = Array.sub g.ins 0 (3 * n);
    ord = copy_adj g.ord g.ord_len;
    ord_len = Array.sub g.ord_len 0 n;
    duse = copy_adj g.duse g.duse_len;
    duse_len = Array.sub g.duse_len 0 n;
    indexed = false;
    dpos = [||];
    writers = [||];
    ouse = copy_adj g.ouse g.ouse_len;
    ouse_len = Array.sub g.ouse_len 0 n;
    out_uses = Array.sub g.out_uses 0 n;
    moved = Array.sub g.moved 0 n;
    pool = Array.make pool_buckets [];
    frozen = false;
    generation = 0;
    topo_cache =
      (match g.topo_cache with
      | Some (gen, order) when gen = g.generation -> Some (0, order)
      | Some _ | None -> None);
    cone_cache =
      (match g.cone_cache with
      | Some (gen, h) when gen = g.generation -> Some (0, h)
      | Some _ | None -> None);
    jflags = Bytes.empty;
    jdef = no_ints;
    jdef_len = 0;
    juse = no_ints;
    juse_len = 0;
  }

type stats = {
  total : int;
  consts : int;
  fetches : int;
  stores : int;
  deletes : int;
  muxes : int;
  multiplies : int;
  adds : int;
  other_alu : int;
  ss_nodes : int;
  critical_path : int;
}

let stats g =
  let consts = ref 0 and fetches = ref 0 and stores = ref 0 in
  let deletes = ref 0 and muxes = ref 0 and multiplies = ref 0 in
  let adds = ref 0 and other_alu = ref 0 and ss_nodes = ref 0 in
  iter_ids g (fun id ->
      match g.kinds.(id) with
      | Const _ -> incr consts
      | Fe _ -> incr fetches
      | St _ -> incr stores
      | Del _ -> incr deletes
      | Mux -> incr muxes
      | Ss_in _ | Ss_out _ -> incr ss_nodes
      | Binop op when Op.is_multiplier_class op -> incr multiplies
      | Binop (Op.Add | Op.Sub) -> incr adds
      | Binop _ | Unop _ -> incr other_alu);
  let d = depths g in
  let critical_path = ref 0 in
  iter_ids g (fun id ->
      if d.(id) + 1 > !critical_path then critical_path := d.(id) + 1);
  {
    total = g.live;
    consts = !consts;
    fetches = !fetches;
    stores = !stores;
    deletes = !deletes;
    muxes = !muxes;
    multiplies = !multiplies;
    adds = !adds;
    other_alu = !other_alu;
    ss_nodes = !ss_nodes;
    critical_path = !critical_path;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "total=%d consts=%d FE=%d ST=%d DEL=%d mux=%d mul=%d add/sub=%d other=%d \
     ss=%d critical_path=%d"
    s.total s.consts s.fetches s.stores s.deletes s.muxes s.multiplies s.adds
    s.other_alu s.ss_nodes s.critical_path

module For_testing = struct
  type corruption =
    | Drop_data_entry of id * int
    | Misfiled_data_entry of id * int * id
    | Duplicate_data_entry of id * int
    | Stale_back_pointer of id * int
    | Wrong_writer_count of id
    | One_sided_order of id * id
    | Stale_output_count of id

  let corrupt g = function
    | Drop_data_entry (cid, port) ->
      adj_remove_swap g.duse g.duse_len g.ins.((3 * cid) + port)
        ((cid lsl 2) lor port)
    | Misfiled_data_entry (cid, port, p) ->
      adj_remove_swap g.duse g.duse_len g.ins.((3 * cid) + port)
        ((cid lsl 2) lor port);
      adj_push g g.duse g.duse_len p ((cid lsl 2) lor port)
    | Duplicate_data_entry (cid, port) ->
      adj_push g g.duse g.duse_len g.ins.((3 * cid) + port)
        ((cid lsl 2) lor port)
    | Stale_back_pointer (cid, port) ->
      ensure_indexed g;
      g.dpos.((3 * cid) + port) <- g.dpos.((3 * cid) + port) + 1
    | Wrong_writer_count p ->
      ensure_indexed g;
      g.writers.(p) <- g.writers.(p) + 1
    | One_sided_order (id, after) -> adj_push g g.ord g.ord_len id after
    | Stale_output_count id -> g.out_uses.(id) <- g.out_uses.(id) + 1

  let journal_words g =
    (Bytes.length g.jflags / (Sys.word_size / 8))
    + Array.length g.jdef + Array.length g.juse
end

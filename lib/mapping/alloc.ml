module G = Cdfg.Graph
module Arch = Fpfa_arch.Arch
module Obs = Fpfa_obs.Obs
module Intbuf = Fpfa_util.Intbuf

(* Allocator tallies for `--stats` (inert until Obs.enable). "alloc.moves"
   and "alloc.forwards" must reconcile with Mapping.Metrics on the mapped
   job; the test suite checks exactly that. *)
let c_moves = Obs.counter "alloc.moves"
let c_forwards = Obs.counter "alloc.forwards"
let c_copies = Obs.counter "alloc.preserve_copies"
let c_reg_hits = Obs.counter "alloc.register_hits"
let c_retries = Obs.counter "alloc.level_retries"
let c_inserted = Obs.counter "alloc.inserted_cycles"

(* Why level attempts fail: each candidate move cycle a resource refuses
   counts once, against the first resource that refused it (bus, then the
   source memory's read port, then the bank's write port, then a free
   register). *)
let c_blocked_bus = Obs.counter "alloc.blocked.bus"
let c_blocked_read = Obs.counter "alloc.blocked.read_port"
let c_blocked_bank = Obs.counter "alloc.blocked.bank_write"
let c_blocked_reg = Obs.counter "alloc.blocked.register"

type options = { locality : bool; forwarding : bool; interleave : bool }

let default_options = { locality = true; forwarding = false; interleave = false }

exception Allocation_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Allocation_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Resource bookkeeping. Every per-cycle resource is one flat table of
   use counts indexed by [cycle * width + slot]; a level attempt bumps the
   counts in place and logs each bump, so a failed attempt undoes exactly
   its own log and leaves no trace.                                     *)
(* ------------------------------------------------------------------ *)

(* Use counts of one resource, [cycle * width + slot] -> uses, in 16-bit
   cells: no count exceeds the number of port slots of a cycle (a port is
   used at most once per cycle, and every crossbar transfer also takes a
   memory or bank port), and the compact store keeps a small kernel's
   tables in the minor heap. *)
module Slots = struct
  type t = { width : int; mutable counts : Bytes.t }

  (* Sized for [cycles] cycles up front, doubled on demand. *)
  let create ~width ~cycles =
    { width; counts = Bytes.make (2 * width * max 1 cycles) '\000' }

  let index t ~cycle slot = (cycle * t.width) + slot

  let get t i =
    if 2 * i < Bytes.length t.counts then Bytes.get_uint16_le t.counts (2 * i)
    else 0

  let bump t i =
    let len = Bytes.length t.counts in
    if 2 * i >= len then begin
      let grown = Bytes.make (max ((2 * i) + 2) (2 * len)) '\000' in
      Bytes.blit t.counts 0 grown 0 len;
      t.counts <- grown
    end;
    let v = Bytes.get_uint16_le t.counts (2 * i) in
    if v = 0xFFFF then invalid_arg "Alloc.Slots.bump: count overflow";
    Bytes.set_uint16_le t.counts (2 * i) (v + 1)

  let unbump t i =
    Bytes.set_uint16_le t.counts (2 * i) (Bytes.get_uint16_le t.counts (2 * i) - 1)
end

(* Register banks, one flat index per (pp, bank, index) register.

   An operand occupies its register over [move cycle, execute cycle] and
   every interval ends at the execute cycle of the level that planned it.
   Levels commit in increasing execute-cycle order (each attempt starts
   past the previous level's cycle), so when a level executing at [exec]
   asks for a register over [lo, exec]:
   - a committed interval [l, e] has e < exec, hence l <= exec, so it
     overlaps exactly when e >= lo; the latest committed end of the
     register decides for all of them at once;
   - an interval planned earlier in the same attempt ends at [exec] too,
     so it always overlaps.
   One latest end per register plus the stamp of the attempt that last
   planned it therefore answers every probe in O(1); [commit] asserts the
   ordering the argument rests on. *)
module Regs = struct
  type t = {
    per_bank : int;
    latest_end : int array;  (** end of the latest committed interval, or -1 *)
    planned : int array;  (** stamp of the attempt that planned it *)
    mutable stamp : int;  (** current attempt *)
    log : Intbuf.t;  (** registers the current attempt planned *)
  }

  let create ~registers per_bank =
    {
      per_bank;
      latest_end = Array.make registers (-1);
      planned = Array.make registers (-1);
      stamp = 0;
      log = Intbuf.create ();
    }

  (* First index at or after [index] of the bank whose registers start at
     [base] that is free over [lo, exec], or -1. *)
  let rec free_from t ~base ~lo index =
    if index >= t.per_bank then -1
    else
      let r = base + index in
      if t.planned.(r) = t.stamp || t.latest_end.(r) >= lo then
        free_from t ~base ~lo (index + 1)
      else index

  let free_index t ~base ~lo = free_from t ~base ~lo 0

  let plan t r =
    t.planned.(r) <- t.stamp;
    Intbuf.push t.log r

  let new_attempt t =
    t.stamp <- t.stamp + 1;
    t.log.Intbuf.len <- 0

  let commit t ~exec =
    for i = 0 to t.log.Intbuf.len - 1 do
      let r = t.log.Intbuf.items.(i) in
      assert (t.latest_end.(r) < exec);
      t.latest_end.(r) <- exec
    done
end

(* ------------------------------------------------------------------ *)

type source =
  | Unresolved
  | Immediate of int
  | In_memory of Job.mem_loc * int * int
      (** cell, first readable cycle, last readable cycle (the value may be
          overwritten by an already-committed write-back after that) *)

(* A register operand of one of the level's clusters. Its source does not
   change while the level is retried (only commits move write-backs), so
   it is resolved once, on first use. *)
type operand = {
  ocid : int;
  opp : int;
  oport : int;
  oinput : G.id;
  mutable osrc : source;
}

type state = {
  tile : Arch.tile;
  options : options;
  graph : G.t;
  sched : Sched.t;
  clustering : Cluster.t;
  pp_of : int array;
  banks : int;  (** register banks per PP, covering every cluster port *)
  mems : int;  (** memories per PP *)
  (* resources *)
  bus : Slots.t;  (* cycle -> transfers *)
  read_port : Slots.t;  (* (cycle, pp * mems + mem) -> reads *)
  write_port : Slots.t;
  bank_write : Slots.t;
      (* (cycle, pp * banks + bank) -> register-bank writes; one port per bank *)
  bumps : Intbuf.t;  (* the attempt's bumps: slot index * 3 + resource *)
  regs : Regs.t;
  cell_last_write : (int, int) Hashtbl.t;  (* cell key -> cycle *)
  (* placement *)
  mutable homes : (string * Job.mem_loc list) list;
  mutable sizes : (string * int) list;
  next_free : int array;  (* pp * mems + mem -> next address *)
  scratch_of : Job.mem_loc option array;  (* cid -> scratch cell *)
  scratch_wb_of : int array;  (* cid -> scratch commit cycle *)
  writeback_of : (G.id, int) Hashtbl.t;  (* St/Del node -> commit cycle *)
  plans : Intbuf.t;
      (* the attempt's planned registers, three ints each: the operand's
         position in the level (times two, plus one for a forward), the
         cycle and the register index; job records are built from it only
         when the level commits, so a failed attempt allocates nothing *)
  port_regs_of : (int * Job.reg) list array;  (* cid -> committed operands *)
  (* output records *)
  mutable rec_moves : (int * Job.move) list;  (* (cycle, move) *)
  mutable rec_alu : (int * Job.alu_work) list;  (* (exec cycle, work) *)
  mutable rec_deletes : (int * Job.delete_work) list;
  forwards : (int, (int * Job.reg) list) Hashtbl.t;
      (* producer cid -> extra register destinations *)
  exec_of_level : int array;
  exec_of_cluster : int array;
  root_has_external : bool array;
  overwriter_of : (G.id, G.id) Hashtbl.t;
      (** fetch -> first same-cell store/delete downstream of its token *)
  version_of : (G.id, G.id) Hashtbl.t;
      (** fetch -> last same-cell store/delete upstream of its token, or -1
          for the initial contents; fetches on chains rooted at an [Ss_in] *)
  endangered_by : (G.id, G.id list) Hashtbl.t;
      (** store/delete -> fetches of the value it destroys *)
  preserve_of : (G.id, Job.mem_loc * int) Hashtbl.t;
      (** fetch -> preservation scratch cell and the cycle it is readable *)
  mutable rec_copies : (int * Job.copy) list;
}

let bus_tag = 0
let read_tag = 1
let bank_tag = 2

let bump st slots tag i =
  Slots.bump slots i;
  Intbuf.push st.bumps ((i * 3) + tag)

let undo_bumps st =
  for k = st.bumps.Intbuf.len - 1 downto 0 do
    let e = st.bumps.Intbuf.items.(k) in
    let tag = e mod 3 in
    Slots.unbump
      (if tag = bus_tag then st.bus
       else if tag = read_tag then st.read_port
       else st.bank_write)
      (e / 3)
  done;
  st.bumps.Intbuf.len <- 0

let mem_slot st (loc : Job.mem_loc) = (loc.Job.mpp * st.mems) + loc.Job.mem

let cell_key st (loc : Job.mem_loc) =
  (mem_slot st loc * st.tile.Arch.memory_size) + loc.Job.addr

(* --------------------------- region homes -------------------------- *)

(* Highest static offset accessed per region, in one pass over the
   graph. *)
let max_offsets g =
  let tbl = Hashtbl.create 16 in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe r | G.St r | G.Del r ->
        let offset = Legalize.const_offset g id in
        let old = match Hashtbl.find_opt tbl r with Some m -> m | None -> -1 in
        if offset > old then Hashtbl.replace tbl r offset
      | _ -> ());
  tbl

let region_static_size max_offsets region info =
  match info.G.size with
  | Some size -> size
  | None ->
    let max_offset =
      match Hashtbl.find_opt max_offsets region with Some m -> m | None -> -1
    in
    max 1 (max_offset + 1)

(* The PP's least-used memory that can still hold [words] (ties: lowest
   memory index), or -1. *)
let roomiest_mem st pp words =
  let best = ref (-1) and best_used = ref max_int in
  for mem = 0 to st.mems - 1 do
    let used = st.next_free.((pp * st.mems) + mem) in
    if used < !best_used && used + words <= st.tile.Arch.memory_size then begin
      best := mem;
      best_used := used
    end
  done;
  !best

(* [words] fresh words, in [preferred_pp]'s memories if they fit, else the
   first other PP's, in PP order. *)
let alloc_words st ~preferred_pp words =
  let take pp mem =
    let slot = (pp * st.mems) + mem in
    let used = st.next_free.(slot) in
    st.next_free.(slot) <- used + words;
    { Job.mpp = pp; mem; addr = used }
  in
  match roomiest_mem st preferred_pp words with
  | mem when mem >= 0 -> take preferred_pp mem
  | _ ->
    let rec search pp =
      if pp >= st.tile.Arch.alu_count then
        errorf "no tile memory can hold %d more words" words
      else if pp = preferred_pp then search (pp + 1)
      else
        match roomiest_mem st pp words with
        | mem when mem >= 0 -> take pp mem
        | _ -> search (pp + 1)
    in
    search 0

let assign_homes st =
  let g = st.graph in
  (* Regions in order of first store, then first fetch, by allocation order
     of clusters; locality picks the touching cluster's PP. *)
  let first_touch = Hashtbl.create 16 in
  Array.iter
    (fun level_cids ->
      List.iter
        (fun cid ->
          let c = st.clustering.Cluster.clusters.(cid) in
          let touch region =
            if not (Hashtbl.mem first_touch region) then
              Hashtbl.replace first_touch region st.pp_of.(cid)
          in
          List.iter
            (fun stn -> match G.kind g stn with G.St r -> touch r | _ -> ())
            c.Cluster.stores;
          List.iter
            (fun del -> match G.kind g del with G.Del r -> touch r | _ -> ())
            c.Cluster.deletes;
          List.iter
            (fun input -> match G.kind g input with G.Fe r -> touch r | _ -> ())
            c.Cluster.cinputs)
        level_cids)
    st.sched.Sched.levels;
  let max_offsets = max_offsets g in
  let counter = ref 0 in
  List.iter
    (fun (region, info) ->
      let words = region_static_size max_offsets region info in
      let preferred_pp =
        if st.options.locality then
          match Hashtbl.find_opt first_touch region with
          | Some pp when pp >= 0 -> pp
          | Some _ | None ->
            let pp = !counter mod st.tile.Arch.alu_count in
            incr counter;
            pp
        else begin
          let pp = !counter mod st.tile.Arch.alu_count in
          incr counter;
          pp
        end
      in
      (* Interleaving splits a region over the PP's memories: cell i lives
         in slice (i mod K) at address i/K, doubling the read bandwidth of
         hot arrays (the tile has one read port per memory). *)
      let k =
        if st.options.interleave && words >= 4 then
          min st.tile.Arch.memories_per_pp 2
        else 1
      in
      let slice_words = (words + k - 1) / k in
      let slices =
        List.init k (fun (_ : int) -> alloc_words st ~preferred_pp slice_words)
      in
      st.homes <- (region, slices) :: st.homes;
      st.sizes <- (region, words) :: st.sizes)
    (G.regions g);
  st.homes <- List.sort compare st.homes;
  st.sizes <- List.sort compare st.sizes

let home_cell st region offset =
  match List.assoc_opt region st.homes with
  | Some slices -> Job.interleaved_cell slices offset
  | None -> errorf "region %s has no home" region

(* ------------------------ value source lookup ---------------------- *)

let cluster_of st node =
  match Hashtbl.find_opt st.clustering.Cluster.cluster_of node with
  | Some cid -> cid
  | None -> -1

(* Which memory word carries the value of [input], and from which cycle it
   is readable. *)
let source_of st input =
  let g = st.graph in
  match G.kind g input with
  | G.Const c -> Immediate c
  | G.Binop _ | G.Unop _ | G.Mux -> (
    let cid = cluster_of st input in
    if cid < 0 then errorf "value node %d is unclustered" input;
    match st.scratch_of.(cid) with
    | Some loc ->
      (* scratch words are single-assignment: no deadline *)
      In_memory (loc, st.scratch_wb_of.(cid) + 1, max_int)
    | None -> errorf "cluster %d produced no scratch word for node %d" cid input)
  | G.Fe _ when Hashtbl.mem st.preserve_of input ->
    let cell, ready = Hashtbl.find st.preserve_of input in
    In_memory (cell, ready, max_int)
  | G.Fe region -> (
    let offset = Legalize.const_offset g input in
    let cell = home_cell st region offset in
    (* The cell becomes unreadable once an already-committed overwriting
       write-back lands: the move must happen no later than that cycle
       (reads precede the end-of-cycle write commit). Overwriters not yet
       allocated execute at later cycles and cannot land before this
       level's moves. *)
    let deadline =
      match Hashtbl.find_opt st.overwriter_of input with
      | None -> max_int
      | Some d -> (
        match Hashtbl.find_opt st.writeback_of d with
        | Some wb -> wb
        | None -> max_int)
    in
    let reads version =
      match G.kind g version with
      | G.St _ ->
        let wb =
          match Hashtbl.find_opt st.writeback_of version with
          | Some wb -> wb
          | None ->
            errorf "fetch %d reads store %d that is not yet allocated" input
              version
        in
        In_memory (cell, wb + 1, deadline)
      | _ -> errorf "fetch %d reads a deleted tuple" input
    in
    (* Which version the fetch reads: found by the chain walk, else by
       walking the token chain back with constant offsets. *)
    let rec walk token =
      match G.kind g token with
      | (G.St _ | G.Del _) when Legalize.const_offset g token = offset ->
        reads token
      | G.St _ | G.Del _ -> walk (G.input g token 0)
      | G.Ss_in _ -> In_memory (cell, 0, deadline)
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_out _ | G.Fe _ ->
        errorf "malformed token chain at node %d" token
    in
    match Hashtbl.find_opt st.version_of input with
    | Some -1 -> In_memory (cell, 0, deadline)
    | Some version -> reads version
    | None -> walk (G.input g input 0))
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
    errorf "node %d cannot be a cluster operand" input

(* --------------------------- micro-ops ----------------------------- *)

(* Position of [x] in [l], or -1. *)
let index_of x l =
  let rec go i = function
    | [] -> -1
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

let micros_of_cluster st (c : Cluster.cluster) =
  let g = st.graph in
  let arg_of input =
    if List.mem input c.Cluster.ops then Job.Node input
    else
      match index_of input c.Cluster.cinputs with
      | -1 -> errorf "operand %d of cluster %d is not a port" input c.Cluster.cid
      | p -> Job.Port p
  in
  match c.Cluster.ops with
  | [] -> (
    match c.Cluster.root with
    | Some src -> [ { Job.node = src; action = Job.Pass; args = [ arg_of src ] } ]
    | None -> [])
  | ops ->
    List.map
      (fun op ->
        let args = List.map arg_of (G.inputs g op) in
        let action =
          match G.kind g op with
          | G.Binop b -> Job.Bin b
          | G.Unop u -> Job.Un u
          | G.Mux -> Job.Mux3
          | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
            errorf "non-value op %d inside cluster %d" op c.Cluster.cid
        in
        { Job.node = op; action; args })
      ops

(* ------------------------------ planning --------------------------- *)

let bus_free st cycle =
  Slots.get st.bus (Slots.index st.bus ~cycle 0) < st.tile.Arch.buses

(* Each register bank has a single write port (paper VI-C lists it among
   the allocation challenges). *)
let bank_slot st ~cycle ~pp ~port =
  Slots.index st.bank_write ~cycle ((pp * st.banks) + port)

let reg_base st ~pp ~port = ((pp * st.banks) + port) * st.tile.Arch.regs_per_bank

(* Plans register [index] of operand [at] for a transfer at [cycle]. *)
let plan_reg st (o : operand) ~at ~forward ~cycle index =
  Regs.plan st.regs (reg_base st ~pp:o.opp ~port:o.oport + index);
  bump st st.bus bus_tag (Slots.index st.bus ~cycle 0);
  bump st st.bank_write bank_tag (bank_slot st ~cycle ~pp:o.opp ~port:o.oport);
  Intbuf.push st.plans ((at * 2) + if forward then 1 else 0);
  Intbuf.push st.plans cycle;
  Intbuf.push st.plans index

(* Extension: the producing cluster writes straight into the consumer's
   register at its own execute cycle. *)
let try_forward st ~exec (o : operand) ~at =
  st.options.forwarding
  &&
  match G.kind st.graph o.oinput with
  | G.Binop _ | G.Unop _ | G.Mux ->
    let pcid = cluster_of st o.oinput in
    let t_p = st.exec_of_cluster.(pcid) in
    t_p >= 0
    && exec - t_p >= 1
    && exec - t_p <= st.tile.Arch.move_window
    && bus_free st t_p
    && Slots.get st.bank_write (bank_slot st ~cycle:t_p ~pp:o.opp ~port:o.oport) < 1
    &&
    let index =
      Regs.free_index st.regs ~base:(reg_base st ~pp:o.opp ~port:o.oport) ~lo:t_p
    in
    index >= 0
    && begin
         plan_reg st o ~at ~forward:true ~cycle:t_p index;
         true
       end
  | _ -> false

(* A register move of [o] from [src] at cycle [u], if every resource on
   its path is free. *)
let try_move_at st (o : operand) ~at (src : Job.mem_loc) u =
  if not (bus_free st u) then begin
    Obs.incr c_blocked_bus;
    false
  end
  else
    let read = Slots.index st.read_port ~cycle:u (mem_slot st src) in
    if Slots.get st.read_port read >= 1 then begin
      Obs.incr c_blocked_read;
      false
    end
    else if Slots.get st.bank_write (bank_slot st ~cycle:u ~pp:o.opp ~port:o.oport) >= 1
    then begin
      Obs.incr c_blocked_bank;
      false
    end
    else
      match
        Regs.free_index st.regs ~base:(reg_base st ~pp:o.opp ~port:o.oport) ~lo:u
      with
      | -1 ->
        Obs.incr c_blocked_reg;
        false
      | index ->
        plan_reg st o ~at ~forward:false ~cycle:u index;
        bump st st.read_port read_tag read;
        true

(* Finds a register move for one operand of a cluster executing at [exec].
   Paper order: window steps before first, then closer. Returns false when
   no candidate cycle works. *)
(* Plans a move of [o] at the first cycle of [u .. last] (walked up, or
   down) inside [floor, hi] where it fits. Top-level rather than local
   closures: a level attempt runs them for every operand. *)
let rec ascending st o ~at src ~floor ~hi u ~last =
  u <= last
  && ((u >= floor && u <= hi && try_move_at st o ~at src u)
     || ascending st o ~at src ~floor ~hi (u + 1) ~last)

let rec descending st o ~at src ~floor ~hi u ~last =
  u >= last
  && u >= floor
  && ((u <= hi && try_move_at st o ~at src u)
     || descending st o ~at src ~floor ~hi (u - 1) ~last)

let plan_operand st ~exec operands at =
  let o = operands.(at) in
  let source =
    match o.osrc with
    | Unresolved ->
      let s = source_of st o.oinput in
      o.osrc <- s;
      s
    | s -> s
  in
  match source with
  | Unresolved -> assert false
  | Immediate _ -> true
  | In_memory (src, avail, deadline) ->
    try_forward st ~exec o ~at
    ||
    let window = st.tile.Arch.move_window in
    let hi = min (exec - 1) deadline in
    let floor = max 0 avail in
    (* Candidate move cycles, in preference order:
       1. the paper's window (4, 3, 2, 1 steps before the execute cycle);
       2. widening: progressively earlier cycles — these are the "inserted
          clock cycles before the current one" of Fig. 5, with registers
          simply holding their operand longer;
       3. when an already-committed overwrite imposes a deadline earlier
          than the window, cycles just before the deadline.
       Each range is walked in place, at most 64 cycles deep, so allocation
       stays linear. The descending ranges stop below [floor]. *)
    ascending st o ~at src ~floor ~hi (exec - window) ~last:(exec - 1)
    || descending st o ~at src ~floor ~hi (exec - window - 1)
         ~last:(exec - window - 64)
    || (hi < exec - window && descending st o ~at src ~floor ~hi hi ~last:(hi - 63))

(* Copies the current word of [cell] to a fresh scratch cell before it is
   overwritten, for every fetch of the old value whose consumers sit at
   levels that are not yet allocated. Returns the earliest cycle at which
   the overwrite may commit (no earlier than any preservation read). *)
let preserve_endangered st ~exec mutator cell =
  match Hashtbl.find_opt st.endangered_by mutator with
  | None -> exec
  | Some fes ->
    let level_of = st.sched.Sched.level_of in
    let level_of_mutator =
      match cluster_of st mutator with -1 -> 0 | cid -> level_of.(cid)
    in
    List.fold_left
      (fun earliest fe ->
        match Hashtbl.find_opt st.preserve_of fe with
        | Some (_, ready) -> max earliest ready
        | None ->
          (* The last future reader in consumer order: the old word is
             parked near it. *)
          let reader = ref (-1) in
          G.iter_consumers st.graph fe (fun user _ ->
              match cluster_of st user with
              | -1 -> ()
              | cid -> if level_of.(cid) > level_of_mutator then reader := cid);
          if !reader < 0 then earliest
          else begin
            let scratch = alloc_words st ~preferred_pp:st.pp_of.(!reader) 1 in
            let floor =
              match Hashtbl.find_opt st.cell_last_write (cell_key st cell) with
              | Some last -> last + 1
              | None -> 0
            in
            let rec search p =
              if p > floor + 1000 then
                errorf "preservation copy search exceeded bound";
              let read = Slots.index st.read_port ~cycle:p (mem_slot st cell) in
              let write =
                Slots.index st.write_port ~cycle:p (mem_slot st scratch)
              in
              if
                Slots.get st.read_port read < 1
                && Slots.get st.write_port write < 1
                && bus_free st p
              then begin
                Slots.bump st.read_port read;
                Slots.bump st.write_port write;
                Slots.bump st.bus (Slots.index st.bus ~cycle:p 0);
                Hashtbl.replace st.cell_last_write (cell_key st scratch) p;
                p
              end
              else search (p + 1)
            in
            let p = search floor in
            Hashtbl.replace st.preserve_of fe (scratch, p + 1);
            st.rec_copies <-
              (p, { Job.csrc = cell; cdst = scratch; kept = fe }) :: st.rec_copies;
            (* the overwrite must not land before the copy has read *)
            max earliest p
          end)
      exec fes

(* Schedules a memory write (with a bus lane unless [no_bus]) at the
   earliest cycle >= [earliest] with a free write port, preserving
   per-cell write order. Commits directly (write-backs never fail, so they
   need no rollback). *)
let commit_write ?(what = "write-back") ?(bus = true) st ~earliest
    (cell : Job.mem_loc) =
  let key = cell_key st cell in
  let floor =
    match Hashtbl.find_opt st.cell_last_write key with
    | Some last -> max earliest (last + 1)
    | None -> earliest
  in
  let slot = mem_slot st cell in
  let rec search cycle =
    if cycle > floor + 1000 then errorf "%s search exceeded bound" what;
    let port = Slots.index st.write_port ~cycle slot in
    if Slots.get st.write_port port < 1 && ((not bus) || bus_free st cycle) then begin
      Slots.bump st.write_port port;
      if bus then Slots.bump st.bus (Slots.index st.bus ~cycle 0);
      Hashtbl.replace st.cell_last_write key cycle;
      cycle
    end
    else search (cycle + 1)
  in
  search floor

(* Deletes use the write port but no crossbar lane. *)
let commit_delete st ~earliest cell =
  commit_write ~what:"delete" ~bus:false st ~earliest cell

(* --------------------------- level placement ----------------------- *)

(* The level's register operands in planning order: ALU clusters in level
   order, ports in order, immediates skipped. *)
let level_operands st alu_cids =
  Array.of_list
  @@ List.concat_map
    (fun cid ->
      let c = st.clustering.Cluster.clusters.(cid) in
      let pp = st.pp_of.(cid) in
      let rec go port = function
        | [] -> []
        | input :: rest -> (
          match G.kind st.graph input with
          | G.Const _ -> go (port + 1) rest
          | _ ->
            { ocid = cid; opp = pp; oport = port; oinput = input; osrc = Unresolved }
            :: go (port + 1) rest)
      in
      go 0 c.Cluster.cinputs)
    alu_cids

(* Plans every operand for execution at [exec]; on failure rolls the
   attempt back completely. *)
let try_level st ~exec operands =
  Regs.new_attempt st.regs;
  st.bumps.Intbuf.len <- 0;
  st.plans.Intbuf.len <- 0;
  let rec plan_all at =
    at >= Array.length operands
    || (plan_operand st ~exec operands at && plan_all (at + 1))
  in
  plan_all 0
  || begin
       undo_bumps st;
       false
     end

let commit_level st ~exec ~level level_cids operands =
  let g = st.graph in
  Obs.add c_reg_hits st.regs.Regs.log.Intbuf.len;
  Regs.commit st.regs ~exec;
  (* the planned moves and forwards, in planning order *)
  let plans = st.plans.Intbuf.items in
  for k = 0 to (st.plans.Intbuf.len / 3) - 1 do
    let code = plans.(3 * k) and cycle = plans.((3 * k) + 1) in
    let o = operands.(code / 2) in
    let reg = { Job.pp = o.opp; bank = o.oport; index = plans.((3 * k) + 2) } in
    st.port_regs_of.(o.ocid) <- (o.oport, reg) :: st.port_regs_of.(o.ocid);
    if code land 1 = 1 then begin
      let pcid = cluster_of st o.oinput in
      let old =
        match Hashtbl.find_opt st.forwards pcid with Some l -> l | None -> []
      in
      Hashtbl.replace st.forwards pcid ((cycle, reg) :: old)
    end
    else
      match o.osrc with
      | In_memory (src, _, _) ->
        st.rec_moves <-
          (cycle, { Job.src; dst = reg; carried = o.oinput; for_cluster = o.ocid })
          :: st.rec_moves
      | Unresolved | Immediate _ -> assert false
  done;
  st.exec_of_level.(level) <- exec;
  List.iter
    (fun cid ->
      let c = st.clustering.Cluster.clusters.(cid) in
      st.exec_of_cluster.(cid) <- exec;
      if Sched.uses_alu c then begin
        let pp = st.pp_of.(cid) in
        (* write-backs: statespace stores + scratch spill *)
        let writes =
          List.map
            (fun stn ->
              match G.kind g stn with
              | G.St region ->
                let offset = Legalize.const_offset g stn in
                let cell = home_cell st region offset in
                let earliest = preserve_endangered st ~exec stn cell in
                let wcycle = commit_write st ~earliest cell in
                Hashtbl.replace st.writeback_of stn wcycle;
                { Job.target = cell; wcycle; source_store = Some stn }
              | _ -> errorf "cluster %d has a non-store write-back" cid)
            c.Cluster.stores
        in
        let writes =
          if st.root_has_external.(cid) then begin
            let scratch = alloc_words st ~preferred_pp:pp 1 in
            let wcycle = commit_write st ~earliest:exec scratch in
            st.scratch_of.(cid) <- Some scratch;
            st.scratch_wb_of.(cid) <- wcycle;
            { Job.target = scratch; wcycle; source_store = None } :: writes
          end
          else writes
        in
        let port_regs = List.sort compare st.port_regs_of.(cid) in
        st.port_regs_of.(cid) <- [];
        let rec imms port = function
          | [] -> []
          | input :: rest -> (
            match G.kind g input with
            | G.Const v -> (port, v) :: imms (port + 1) rest
            | _ -> imms (port + 1) rest)
        in
        let work =
          {
            Job.wcluster = cid;
            wpp = pp;
            port_regs;
            port_imms = imms 0 c.Cluster.cinputs;
            micros = micros_of_cluster st c;
            writes;
            reg_dests = [];
          }
        in
        st.rec_alu <- (exec, work) :: st.rec_alu
      end;
      (* deletes (memory-only or attached) *)
      List.iter
        (fun del ->
          match G.kind g del with
          | G.Del region ->
            let offset = Legalize.const_offset g del in
            let cell = home_cell st region offset in
            let earliest = preserve_endangered st ~exec del cell in
            let dcycle = commit_delete st ~earliest cell in
            Hashtbl.replace st.writeback_of del dcycle;
            st.rec_deletes <-
              (dcycle, { Job.dcluster = cid; dloc = cell; dcycle })
              :: st.rec_deletes
          | _ -> errorf "cluster %d has a non-delete delete" cid)
        c.Cluster.deletes)
    level_cids

(* ------------------------------- driver ---------------------------- *)

let alu_clusters_of_level (clustering : Cluster.t) level_cids =
  List.filter
    (fun cid -> Sched.uses_alu clustering.Cluster.clusters.(cid))
    level_cids

let assign_delete_pps st =
  Array.iter
    (fun (c : Cluster.cluster) ->
      if not (Sched.uses_alu c) then
        match c.Cluster.deletes with
        | del :: _ -> (
          match G.kind st.graph del with
          | G.Del region -> (
            match List.assoc_opt region st.homes with
            | Some (home :: _) -> st.pp_of.(c.Cluster.cid) <- home.Job.mpp
            | Some [] | None -> st.pp_of.(c.Cluster.cid) <- 0)
          | _ -> ())
        | [] -> ())
    st.clustering.Cluster.clusters

(* Does a cluster's root value leave the cluster (so it needs a scratch
   word)? *)
let compute_root_externals (clustering : Cluster.t) g =
  Array.map
    (fun (c : Cluster.cluster) ->
      match c.Cluster.root with
      | None -> false
      | Some root ->
        let external_use = ref false in
        G.iter_consumers g root (fun user _ ->
            if not (List.mem user c.Cluster.ops || List.mem user c.Cluster.stores)
            then external_use := true);
        !external_use)
    clustering.Cluster.clusters

(* A fetch's value dies at the first same-cell store/delete downstream of
   its token, and it reads the last same-cell one upstream. Chains are
   linear (a token feeds one store/delete; when it feeds several, the
   highest id continues the chain), so each chain is walked once from its
   head, carrying the fetches still waiting for their overwriter and the
   latest mutator, both keyed by offset. Only a chain that starts at an
   [Ss_in] has its whole upstream in view, so only its fetches get a
   version; the others are resolved by walking back at use. *)
let trace_chains st =
  let g = st.graph in
  let successor = Hashtbl.create 64 in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.St _ | G.Del _ -> Hashtbl.replace successor (G.input g id 0) id
      | _ -> ());
  let waiting = Hashtbl.create 16 and latest = Hashtbl.create 16 in
  let rec walk ~rooted token =
    (* fetches reading this version wait for a later same-offset mutator *)
    G.iter_consumers g token (fun user port ->
        match G.kind g user with
        | G.Fe _ when port = 0 ->
          let offset = Legalize.const_offset g user in
          let old = match Hashtbl.find_opt waiting offset with Some l -> l | None -> [] in
          Hashtbl.replace waiting offset (user :: old);
          if rooted then
            Hashtbl.replace st.version_of user
              (match Hashtbl.find_opt latest offset with Some m -> m | None -> -1)
        | _ -> ());
    match Hashtbl.find_opt successor token with
    | None -> ()
    | Some next ->
      let offset = Legalize.const_offset g next in
      (match Hashtbl.find_opt waiting offset with
      | Some fes ->
        List.iter (fun fe -> Hashtbl.replace st.overwriter_of fe next) fes;
        Hashtbl.remove waiting offset
      | None -> ());
      Hashtbl.replace latest offset next;
      walk ~rooted next
  in
  G.iter_ids g (fun id ->
      let head =
        match G.kind g id with
        | G.Ss_in _ -> Some true
        | G.St _ | G.Del _ when Hashtbl.find_opt successor (G.input g id 0) <> Some id ->
          Some false
        | _ -> None
      in
      match head with
      | Some rooted ->
        Hashtbl.reset waiting;
        Hashtbl.reset latest;
        walk ~rooted id
      | None -> ());
  (* each mutator's endangered fetches, in descending id order *)
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe _ -> (
        match Hashtbl.find_opt st.overwriter_of id with
        | Some m ->
          let old = match Hashtbl.find_opt st.endangered_by m with Some l -> l | None -> [] in
          Hashtbl.replace st.endangered_by m (id :: old)
        | None -> ())
      | _ -> ())

let run ?(options = default_options) ~tile (sched : Sched.t) =
  Arch.validate tile;
  let clustering = sched.Sched.clustering in
  let g = clustering.Cluster.graph in
  Legalize.check g;
  let n = Array.length clustering.Cluster.clusters in
  let alu_levels = Array.map (alu_clusters_of_level clustering) sched.Sched.levels in
  (* PPs: the tile's, or more when the schedule was made for a wider tile
     (position in the level is the PP). *)
  let pps =
    Array.fold_left (fun acc l -> max acc (List.length l)) tile.Arch.alu_count alu_levels
  in
  let banks =
    Array.fold_left
      (fun acc (c : Cluster.cluster) -> max acc (List.length c.Cluster.cinputs))
      tile.Arch.banks_per_pp clustering.Cluster.clusters
  in
  let mems = tile.Arch.memories_per_pp in
  let cycles = Sched.level_count sched + tile.Arch.move_window + 2 in
  let st =
    {
      tile;
      options;
      graph = g;
      sched;
      clustering;
      pp_of = Array.make n 0;
      banks;
      mems;
      bus = Slots.create ~width:1 ~cycles;
      read_port = Slots.create ~width:(pps * mems) ~cycles;
      write_port = Slots.create ~width:(pps * mems) ~cycles;
      bank_write = Slots.create ~width:(pps * banks) ~cycles;
      bumps = Intbuf.create ();
      regs = Regs.create ~registers:(pps * banks * tile.Arch.regs_per_bank) tile.Arch.regs_per_bank;
      cell_last_write = Hashtbl.create 64;
      homes = [];
      sizes = [];
      next_free = Array.make (pps * mems) 0;
      scratch_of = Array.make n None;
      scratch_wb_of = Array.make n (-1);
      writeback_of = Hashtbl.create 64;
      plans = Intbuf.create ();
      port_regs_of = Array.make n [];
      rec_moves = [];
      rec_alu = [];
      rec_deletes = [];
      forwards = Hashtbl.create 16;
      exec_of_level = Array.make (Sched.level_count sched) (-1);
      exec_of_cluster = Array.make n (-1);
      root_has_external = compute_root_externals clustering g;
      overwriter_of = Hashtbl.create 64;
      version_of = Hashtbl.create 64;
      endangered_by = Hashtbl.create 64;
      preserve_of = Hashtbl.create 16;
      rec_copies = [];
    }
  in
  trace_chains st;
  Array.iter (List.iteri (fun position cid -> st.pp_of.(cid) <- position)) alu_levels;
  assign_homes st;
  assign_delete_pps st;
  let prev_exec = ref (-1) in
  Array.iteri
    (fun level level_cids ->
      let alu_cids = alu_levels.(level) in
      let operands = level_operands st alu_cids in
      let first_try = !prev_exec + 1 in
      let rec attempt exec =
        if exec > !prev_exec + 1 + 200 then
          errorf "level %d cannot be placed (inserted more than 200 cycles)"
            level;
        if try_level st ~exec operands then begin
          commit_level st ~exec ~level level_cids operands;
          Obs.add c_inserted (exec - first_try);
          prev_exec := exec
        end
        else begin
          Obs.incr c_retries;
          attempt (exec + 1)
        end
      in
      (* The first level can execute at cycle 0 only when it needs no
         operand moves; attempts start one past the previous level. *)
      attempt first_try)
    st.sched.Sched.levels;
  (* Patch forwards into the producing clusters' work records. *)
  let rec_alu =
    if Hashtbl.length st.forwards = 0 then st.rec_alu
    else
      List.map
        (fun (cycle, work) ->
          match Hashtbl.find_opt st.forwards work.Job.wcluster with
          | Some dests ->
            (cycle, { work with Job.reg_dests = List.sort compare dests })
          | None -> (cycle, work))
        st.rec_alu
  in
  let max_cycle =
    List.fold_left
      (fun acc (cycle, work) ->
        List.fold_left
          (fun acc (w : Job.write) -> max acc w.Job.wcycle)
          (max acc cycle) work.Job.writes)
      0 rec_alu
  in
  let latest acc records = List.fold_left (fun acc (cycle, _) -> max acc cycle) acc records in
  let max_cycle = latest (latest (latest max_cycle st.rec_moves) st.rec_deletes) st.rec_copies in
  (* The records are newest first, so consing them into their cycles
     leaves every cycle's list oldest first, in allocation order. *)
  let bucket records =
    let buckets = Array.make (max_cycle + 1) [] in
    List.iter
      (fun (cycle, item) -> buckets.(cycle) <- item :: buckets.(cycle))
      records;
    buckets
  in
  Obs.add c_moves (List.length st.rec_moves);
  Obs.add c_copies (List.length st.rec_copies);
  Obs.add c_forwards
    (List.fold_left
       (fun acc ((_ : int), (w : Job.alu_work)) -> acc + List.length w.Job.reg_dests)
       0 rec_alu);
  let moves = bucket st.rec_moves in
  let copies = bucket st.rec_copies in
  let alu = bucket rec_alu in
  let deletes = bucket st.rec_deletes in
  let cycles =
    Array.init (max_cycle + 1) (fun i ->
        { Job.moves = moves.(i); copies = copies.(i); alu = alu.(i); deletes = deletes.(i) })
  in
  {
    Job.tile;
    graph = g;
    cycles;
    region_homes = st.homes;
    region_sizes = st.sizes;
    exec_cycle_of_level = st.exec_of_level;
  }

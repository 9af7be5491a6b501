module G = Cdfg.Graph
module Obs = Fpfa_obs.Obs

type t = { name : string; run : Cdfg.Graph.t -> bool; settled : bool }

(* Engine tallies, visible in `fpfa_map ... --stats` (counters are inert
   until Obs.enable). Per-rule counters are registered lazily in
   run_worklist: firings under "pass.fire.<rule>", and, for runs started
   with observability on, self time in nanoseconds under
   "pass.rule_ns.<rule>" over "pass.calls.<rule>" applications. *)
let c_steps = Obs.counter "pass.steps"
let c_rewrites = Obs.counter "pass.rewrites"
let c_enqueues = Obs.counter "pass.enqueues"
let c_peak_eager = Obs.counter "pass.queue.eager.peak"
let c_peak_settled = Obs.counter "pass.queue.settled.peak"
let c_fixpoint_rounds = Obs.counter "pass.fixpoint.rounds"
let c_verify_checks = Obs.counter "pass.verify.checks"
let c_verify_failures = Obs.counter "pass.verify.failures"

type verify_hook =
  string -> Cdfg.Graph.t -> Cdfg.Graph.Id_set.t -> unit

exception Verification_failed of { rule : string; error : exn }

let () =
  Printexc.register_printer (function
    | Verification_failed { rule; error } ->
      Some
        (Printf.sprintf "Verification_failed(rule %s): %s" rule
           (Printexc.to_string error))
    | _ -> None)

(* Runs [f rule g touched]; any exception is charged to [rule]. *)
let run_verify f rule g touched =
  Obs.incr c_verify_checks;
  try f rule g touched
  with error ->
    Obs.incr c_verify_failures;
    raise (Verification_failed { rule; error })

let run_fixpoint ?(max_rounds = 100) ?verify passes g =
  let rec loop rounds =
    if rounds >= max_rounds then
      failwith
        (Printf.sprintf "transformation pipeline did not converge in %d rounds"
           max_rounds);
    let changed =
      List.fold_left
        (fun changed pass ->
          if pass.settled && changed then changed
          else
          let fired =
            Obs.span ~cat:"transform" pass.name (fun () -> pass.run g)
          in
          (match verify with
          | Some f when fired ->
            (* Whole-graph passes touch arbitrary nodes, so the verify
               batch is the full graph. *)
            Obs.span ~cat:"transform" "verify-each" (fun () ->
                run_verify f pass.name g
                  (List.fold_left
                     (fun s id -> G.Id_set.add id s)
                     G.Id_set.empty (G.node_ids g)))
          | Some _ | None -> ());
          fired || changed)
        false passes
    in
    if changed then loop (rounds + 1) else rounds + 1
  in
  let rounds = loop 0 in
  Obs.add c_fixpoint_rounds rounds;
  rounds

let checked pass =
  {
    pass with
    run =
      (fun g ->
        let changed = pass.run g in
        Cdfg.Graph.validate g;
        changed);
  }

(* {2 Worklist engine} *)

type rule = {
  rname : string;
  prepare : Cdfg.Graph.t -> Cdfg.Graph.id -> bool;
  prepare_seeded : (Cdfg.Graph.t -> Cdfg.Graph.id -> bool) option;
  settled : bool;
}

let local rname rewrite =
  { rname; prepare = rewrite; prepare_seeded = None; settled = false }

let settled rname rewrite =
  { rname; prepare = rewrite; prepare_seeded = None; settled = true }

type worklist_report = { steps : int; rewrites : int; peak_queue : int }

(* A rule prepared for one engine run, with its counters. *)
type rewriter = {
  rw_name : string;
  fired : Obs.counter;
  self_ns : Obs.counter;
  calls : Obs.counter;
  rewrite : Cdfg.Graph.id -> bool;
}

(* FIFO of ids in a power-of-two int ring; doubles when full, keeping
   the pop order. *)
type ring = { mutable buf : int array; mutable head : int; mutable len : int }

let ring_create () = { buf = Array.make 64 0; head = 0; len = 0 }

let ring_push q id =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for j = 0 to q.len - 1 do
      buf.(j) <- q.buf.((q.head + j) land (cap - 1))
    done;
    q.buf <- buf;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- id;
  q.len <- q.len + 1

let ring_pop q =
  let id = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  id

let run_worklist ?(debug = false) ?max_steps ?seed ?verify rules g =
  Obs.span ~cat:"transform" "worklist"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  (* Forget mutations that predate the run (graph construction, or the
     patch application that produced [seed]). *)
  G.clear_journal g;
  let eager, deferred = List.partition (fun r -> not r.settled) rules in
  (* The clock is read around each rule application only when
     observability was on at the start of the run, so the disabled path
     pays one branch per application. *)
  let timed = Obs.enabled () in
  (* A seeded run visits only the dirty region, so rules that accumulate
     cross-node state lazily (CSE's value-number table) supply a
     [prepare_seeded] that pre-populates it over the whole graph —
     otherwise a new node could fail to merge with an unvisited old equal
     and the seeded result would diverge from a from-scratch run. *)
  let prep r =
    match seed with
    | Some _ -> (Option.value r.prepare_seeded ~default:r.prepare) g
    | None -> r.prepare g
  in
  let rewriter r =
    {
      rw_name = r.rname;
      fired = Obs.counter ("pass.fire." ^ r.rname);
      self_ns = Obs.counter ("pass.rule_ns." ^ r.rname);
      calls = Obs.counter ("pass.calls." ^ r.rname);
      rewrite = prep r;
    }
  in
  let eager_rw = Array.of_list (List.map rewriter eager) in
  let settled_rw = Array.of_list (List.map rewriter deferred) in
  let have_settled = Array.length settled_rw > 0 in
  (* Two priority tiers. Eager rules (folding, CSE, forwarding, DCE) run
     from the high queue. Settled rules run from the low queue, which is
     popped only when the high queue is empty — i.e. when the eager rules
     have quiesced. At that point DCE is complete (every node that hit
     zero uses was use-dirtied, enqueued and collected), so settled rules
     observe use counts of the live graph only. Rules such as chain
     rebalancing key their chain boundaries on use counts; letting them
     fire on transient counts inflated by not-yet-collected dead trees
     makes them rebuild chains that the next collection invalidates again,
     feeding CSE/DCE fresh dead trees forever. *)
  (* One flag byte per id: bit 0 = in the high queue, bit 1 = in the low
     queue. Grown on demand as rewrites allocate ids. *)
  let pending = ref (Bytes.make (max 16 (G.id_bound g)) '\000') in
  let flags id =
    if id >= Bytes.length !pending then begin
      let b = Bytes.make (max (id + 1) (2 * Bytes.length !pending)) '\000' in
      Bytes.blit !pending 0 b 0 (Bytes.length !pending);
      pending := b
    end;
    Char.code (Bytes.unsafe_get !pending id)
  in
  let set_flags id f = Bytes.unsafe_set !pending id (Char.unsafe_chr f) in
  let queue_hi = ring_create () and queue_lo = ring_create () in
  let enqueue id =
    if G.mem g id then begin
      let f = flags id in
      if f land 1 = 0 then begin
        ring_push queue_hi id;
        Obs.incr c_enqueues
      end;
      if have_settled && f land 2 = 0 then begin
        ring_push queue_lo id;
        Obs.incr c_enqueues
      end;
      set_flags id (if have_settled then 3 else f lor 1)
    end
  in
  let enqueue_consumer c _port = enqueue c in
  (* A changed definition can enable rewrites of the node itself, of
     everything reading it (data or order), and of its direct producers
     (dead-store bypassing examines a store but keys on its consumer's
     offset, so the enabling event lands on the consumer). Producers are
     bounded by arity, so this stays O(degree). A lost use can enable
     use-count-driven rewrites (DCE, dead-store, chain rebalancing) of
     the producer alone — crucially NOT of its consumers, or a popular
     constant would re-enqueue its whole fan-out on every removal. *)
  let on_def d =
    enqueue d;
    if G.mem g d then begin
      G.iter_consumers g d enqueue_consumer;
      G.iter_order_successors g d enqueue;
      G.iter_inputs g d enqueue
    end
  in
  (* Seed in topological order: producers are simplified before their
     consumers key on them, mirroring the scan order of the whole-graph
     passes. A caller-supplied seed restricts the initial frontier to the
     dirty region; the journal-driven enqueues below still propagate every
     rewrite's consequences outward from there. *)
  (match seed with
  | None -> List.iter enqueue (G.topo_order g)
  | Some ids ->
    let wanted = List.fold_left (fun s id -> G.Id_set.add id s) G.Id_set.empty ids in
    List.iter
      (fun id -> if G.Id_set.mem id wanted then enqueue id)
      (G.topo_order g));
  let max_steps =
    match max_steps with
    | Some m -> m
    | None -> 100 + ((if have_settled then 200 else 100) * G.node_count g)
  in
  let steps = ref 0 and rewrites = ref 0 and peak = ref 0 in
  (* Under [~verify] the journal is drained after every firing so the
     verifier sees exactly the nodes that firing touched; the drained
     sets are accumulated here and replace the journal as the source of
     the step's enqueues, which therefore behave identically with and
     without verification. *)
  let def_acc = ref G.Id_set.empty and use_acc = ref G.Id_set.empty in
  (* One clock read per application: each ends where the previous one's
     reading left off (reset after a verify hook, whose time is not the
     rule's). *)
  let t_last = ref 0.0 in
  while queue_hi.len > 0 || queue_lo.len > 0 do
    if !steps > max_steps then
      failwith
        (Printf.sprintf
           "worklist engine exceeded %d steps (diverging rewrite rules?)"
           max_steps);
    peak := max !peak (queue_hi.len + queue_lo.len);
    Obs.record_max c_peak_eager queue_hi.len;
    Obs.record_max c_peak_settled queue_lo.len;
    let from_hi = queue_hi.len > 0 in
    let id =
      if from_hi then begin
        let id = ring_pop queue_hi in
        set_flags id (flags id land 2);
        id
      end
      else begin
        let id = ring_pop queue_lo in
        set_flags id (flags id land 1);
        id
      end
    in
    let rewriters = if from_hi then eager_rw else settled_rw in
    if G.mem g id then begin
      incr steps;
      if timed then t_last := Obs.now ();
      for i = 0 to Array.length rewriters - 1 do
        let r = rewriters.(i) in
        if G.mem g id then begin
          let changed = r.rewrite id in
          if timed then begin
            let t = Obs.now () in
            Obs.add r.self_ns (int_of_float ((t -. !t_last) *. 1e9));
            Obs.incr r.calls;
            t_last := t
          end;
          if changed then begin
            incr rewrites;
            Obs.incr r.fired;
            match verify with
            | Some f ->
              let d, u = G.drain_dirty g in
              def_acc := G.Id_set.union !def_acc d;
              use_acc := G.Id_set.union !use_acc u;
              run_verify f r.rw_name g (G.Id_set.union d u);
              if timed then t_last := Obs.now ()
            | None -> ()
          end
        end
      done;
      if debug then G.validate g;
      match verify with
      | None -> G.drain_dirty_iter g ~def:on_def ~use:enqueue
      | Some _ ->
        let d, u = G.drain_dirty g in
        let defs = G.Id_set.union !def_acc d in
        let uses = G.Id_set.union !use_acc u in
        def_acc := G.Id_set.empty;
        use_acc := G.Id_set.empty;
        G.Id_set.iter on_def defs;
        G.Id_set.iter enqueue uses
    end
  done;
  Obs.add c_steps !steps;
  Obs.add c_rewrites !rewrites;
  { steps = !steps; rewrites = !rewrites; peak_queue = !peak }

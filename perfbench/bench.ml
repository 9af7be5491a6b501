(* One workload of the repository benchmark, closed loop with a single
   client. Untraced (--trace 0) it prints the end-to-end metrics; traced
   (--trace 1) it alternates untraced and traced passes and prints the
   per-layer metrics plus the tracing overhead. Either way the last line
   of stdout is one JSON object, and every output is checked: a failed
   check makes "correct" false and the exit code 1. Times are scaled to
   the host's speed as measured by a fixed probe (see [run_passes]); the
   unscaled end-to-end figures go to a "#" line. *)

module Flow = Fpfa_core.Flow
module Staged = Flow.Staged
module Sim = Fpfa_sim.Sim
module Serve = Fpfa_serve.Serve
module Arch = Fpfa_arch.Arch
module Json = Fpfa_util.Json
module Prng = Fpfa_util.Prng
module W = Workload

let now = Unix.gettimeofday

(* {2 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The value at the highest percentile that still has ten samples beyond
   it, with that percentile and the sample count. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

(* Least-squares slope of log y against log x. *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let mx = sum (List.map fst pts) /. n and my = sum (List.map snd pts) /. n in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) pts)
  and sxx = sum (List.map (fun (x, _) -> (x -. mx) *. (x -. mx)) pts) in
  if n < 2.0 then 0.0 else ratio sxy sxx

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

(* {2 Runs} *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  spans_out : string option;
  probe : string;  (** the host-speed probe executable *)
}

(* One answered request. *)
type sample = {
  req : int;  (** request id, shared with its spans *)
  latency : float;  (** seconds *)
  traced : bool;
  passed : bool;  (** passed every check *)
  raw_nodes : int;
}

(* What every workload hands back for reporting. *)
type run = {
  setup_s : float;  (** median of the set-ups, unscaled *)
  speed : float;  (** the run's host-speed scale for times *)
  samples : sample list;  (** in request order *)
  tile_cycles : int;
  peak_heap_mb : float;
  layer : (string * float) list;  (** traced metrics *)
}

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The host-speed probe (probe.ml) in a fresh process: milliseconds of
   fixed allocation-heavy work. *)
let probe_ms exe =
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some ms when ms > 0.0 -> ms
  | _ -> failwith ("speed probe failed: " ^ exe)

(* Times are reported as if the probe took [nominal_probe_ms]. A shared
   host's speed for allocation-heavy code drifts by a fifth or more over
   minutes, which moves every time of a run together; the probe moves
   with it and the program under test cannot change it. *)
let nominal_probe_ms = 12.0

type passes = { setup_s : float; peak_mb : float; speed : float }

(* Closed-loop passes: keep starting passes while the next one is
   expected to end inside [seconds]. Traced runs alternate untraced (even)
   and traced (odd) passes and need at least one of each.

   Between passes, at most every two seconds, the set-up is repeated and
   timed by [resetup], and the probe runs. Set-up time is the median of
   these set-ups and of the first, [first_s]: one set-up of a few
   milliseconds is mostly timer noise, and set-ups spread over the run
   meet the same host load as its requests do. The speed scale comes from
   the mean of the probes, spread over the run in the same way: the host
   switches between faster and slower spells within a run, and the mean
   weighs them as the requests' times do.

   The top of the heap is read after [heap_passes] passes (or at the end
   of a shorter run): the heap keeps growing slowly over a run, so reading
   it at the end would make a faster program look bigger. *)
let run_passes ~(opts : opts) ~first_s ~resetup ~heap_passes f =
  let min_passes = if opts.traced then 2 else 1 in
  let setups = ref [ first_s ] and probes = ref [ probe_ms opts.probe ] in
  let t0 = now () in
  let last = ref t0 and peak = ref None in
  let rec go i =
    let elapsed = now () -. t0 in
    let per_pass = if i = 0 then 0.0 else elapsed /. float_of_int i in
    if i < min_passes || elapsed +. per_pass <= opts.seconds then begin
      if now () -. !last >= 2.0 then begin
        setups := resetup () :: !setups;
        probes := probe_ms opts.probe :: !probes;
        last := now ()
      end;
      f i (opts.traced && i mod 2 = 1);
      if i + 1 = heap_passes then peak := Some (peak_heap_mb ());
      go (i + 1)
    end
  in
  go 0;
  probes := probe_ms opts.probe :: !probes;
  let probe = mean !probes in
  info "setup_s is the median of %d set-ups" (List.length !setups);
  info "speed probe: n=%d mean=%.3f ms min=%.3f max=%.3f; times are scaled by %.4f"
    (List.length !probes) probe (List.fold_left Float.min infinity !probes)
    (List.fold_left Float.max 0.0 !probes) (nominal_probe_ms /. probe);
  if !peak = None then info "peak_heap_mb read at the end, before %d passes" heap_passes;
  {
    setup_s = median !setups;
    peak_mb = (match !peak with Some mb -> mb | None -> peak_heap_mb ());
    speed = nominal_probe_ms /. probe;
  }

(* Layers timed at their boundary calls; a layer the workload never calls
   reports 0. *)
let layer_names =
  [ "frontend"; "minimise"; "cluster"; "sched"; "alloc"; "sim"; "verify"; "serve" ]

(* Per traced request: scaled self milliseconds and self minor words of
   every layer. Prints each layer's share of the traced time and writes
   the spans out. *)
let layer_time_metrics (opts : opts) ~speed ~traced_requests spans =
  let totals = Spans.totals spans in
  let self name =
    match Hashtbl.find_opt totals name with
    | Some t -> (t.Spans.self_s, t.Spans.self_words)
    | None -> (0.0, 0.0)
  in
  let all = Hashtbl.fold (fun _ (t : Spans.self) acc -> acc +. t.Spans.self_s) totals 0.0 in
  info "layer self-time shares (traced passes): %s"
    (String.concat " "
       (List.filter_map
          (fun name ->
            if Hashtbl.mem totals name then
              Some (Printf.sprintf "%s=%.1f%%" name (100.0 *. ratio (fst (self name)) all))
            else None)
          (layer_names @ [ "request" ])));
  Option.iter (fun path -> Spans.write_jsonl path spans) opts.spans_out;
  let per_req x = ratio x (float_of_int traced_requests) in
  List.concat_map
    (fun name ->
      let s, w = self name in
      [ (name ^ ".ms", per_req s *. speed *. 1000.0); (name ^ ".minor_words", per_req w) ])
    layer_names

(* Traced minus untraced mean latency, as a share. *)
let trace_overhead samples =
  let lat traced =
    mean (List.filter_map (fun s -> if s.traced = traced then Some s.latency else None) samples)
  in
  100.0 *. (ratio (lat true) (lat false) -. 1.0)

(* {2 corpus-cold and large-unroll: cold compiles through Flow.Staged} *)

type counts = {
  raw : int;
  steps : int;
  removed : int;
  rewrites : int;
  order_removed : int;
  clusters : int;
  levels : int;
  inserted : int;
  moves : int;
  cycles : int;
}

let counts_of (r : Flow.result) =
  let raw = (Cdfg.Graph.stats r.Flow.raw_graph).Cdfg.Graph.total in
  let b = r.Flow.bitopt_report in
  {
    raw;
    steps = r.Flow.simplify_report.Transform.Simplify.steps;
    removed = raw - (Cdfg.Graph.stats r.Flow.graph).Cdfg.Graph.total;
    rewrites = b.Transform.Bitopt.folds + b.Transform.Bitopt.redirects;
    order_removed = r.Flow.disambig_report.Transform.Disambig.removed;
    clusters = Array.length r.Flow.clustering.Mapping.Cluster.clusters;
    levels = Mapping.Sched.level_count r.Flow.schedule;
    inserted = r.Flow.metrics.Mapping.Metrics.inserted_cycles;
    moves = r.Flow.metrics.Mapping.Metrics.moves;
    cycles = r.Flow.metrics.Mapping.Metrics.cycles;
  }

(* One request: source to verified job, each layer called through its
   public entry point. *)
let compile_request sp (p : W.program) =
  let config = Flow.default_config in
  let s = Spans.layer sp "frontend" (fun () -> Staged.of_source ~config p.W.source) in
  let s = Spans.layer sp "minimise" (fun () -> Staged.advance s) in
  let s = Spans.layer sp "cluster" (fun () -> Staged.advance s) in
  let s = Spans.layer sp "sched" (fun () -> Staged.advance s) in
  let s = Spans.layer sp "alloc" (fun () -> Staged.advance s) in
  let r = Staged.to_result s in
  let regions, trace =
    Spans.layer sp "sim" (fun () -> Sim.run ~memory_init:p.W.inputs r.Flow.job)
  in
  let ok = Spans.layer sp "verify" (fun () -> Flow.verify ~memory_init:p.W.inputs r) in
  (r, regions, trace.Sim.cycles_run, ok)

(* The reference interpreter's verdict on simulated region contents. *)
let matches_interp (p : W.program) regions =
  match
    Cfront.Interp.run_main ~array_init:p.W.inputs
      (Cfront.Inline.program (Cfront.Parser.parse_program p.W.source))
  with
  | state ->
    Cdfg.Eval.conforms_to_interp ~memory_init:p.W.inputs state
      { Cdfg.Eval.memory = regions; named = [] }
  | exception _ -> false

let run_compile ~(opts : opts) ~heap_passes programs_of =
  let setup () =
    let programs = Array.of_list (programs_of ()) in
    (* every request must get through the front end *)
    Array.iter
      (fun (p : W.program) -> ignore (Staged.of_source ~config:Flow.default_config p.W.source))
      programs;
    programs
  in
  let programs, first_s = timed setup in
  let n = Array.length programs in
  let rng = Prng.create opts.seed in
  let sp = Spans.create () in
  let first = Array.make n None (* counts and regions of the first compile *) in
  let samples = ref [] and next_req = ref 0 in
  (* request id -> program, simulated cycles *)
  let reqs = Hashtbl.create 4096 in
  let report_failure pi msg = info "FAILED %s: %s" programs.(pi).W.name msg in
  let pass _ traced =
    sp.Spans.on <- traced;
    let order = Prng.shuffle rng (List.init n Fun.id) in
    List.iter
      (fun pi ->
        let req = !next_req in
        incr next_req;
        let t = now () in
        let outcome =
          match Spans.request sp ~req (fun () -> compile_request sp programs.(pi)) with
          | v -> Ok v
          | exception e -> Error (Printexc.to_string e)
        in
        let latency = now () -. t in
        let why, sim_cycles =
          match outcome with
          | Error msg -> (Some msg, 0)
          | Ok (r, regions, sim_cycles, ok) ->
            let why =
              if not ok then Some "Flow.verify: interp/eval/sim disagree"
              else
                match first.(pi) with
                | None ->
                  first.(pi) <- Some (counts_of r, regions);
                  None
                | Some (c, first_regions) ->
                  if c.cycles = r.Flow.metrics.Mapping.Metrics.cycles
                     && regions = first_regions
                  then None
                  else Some "output differs from the first compile of this program"
            in
            (why, sim_cycles)
        in
        Option.iter (report_failure pi) why;
        Hashtbl.replace reqs req (pi, sim_cycles);
        samples := { req; latency; traced; passed = why = None; raw_nodes = 0 } :: !samples)
      order
  in
  let passes = run_passes ~opts ~first_s ~resetup:(fun () -> snd (timed setup)) ~heap_passes pass in
  let speed = passes.speed in
  sp.Spans.on <- false;
  (* outside the window: each program's first simulated state against the
     reference interpreter *)
  let interp_ok =
    Array.mapi
      (fun pi entry ->
        match entry with
        | Some (_, regions) ->
          let ok = matches_interp programs.(pi) regions in
          if not ok then report_failure pi "simulated state differs from Cfront.Interp";
          ok
        | None -> false)
      first
  in
  let counts = Array.map (Option.map fst) first in
  let raw_of pi = match counts.(pi) with Some c -> c.raw | None -> 0 in
  let samples =
    List.rev_map
      (fun s ->
        let pi = fst (Hashtbl.find reqs s.req) in
        { s with passed = s.passed && interp_ok.(pi); raw_nodes = raw_of pi })
      !samples
  in
  let total f =
    float_of_int
      (Array.fold_left (fun acc c -> match c with Some c -> acc + f c | None -> acc) 0 counts)
  in
  let layer =
    if not opts.traced then []
    else begin
      let traced = List.filter (fun s -> s.traced) samples in
      (* per program: scaled minimise self seconds of each traced compile *)
      let minimise = Hashtbl.create 64 and sim_s = ref 0.0 in
      List.iter
        (fun ((span : Spans.span), self_s, _) ->
          match span.Spans.name with
          | "minimise" ->
            let pi = fst (Hashtbl.find reqs span.Spans.req) in
            Hashtbl.replace minimise pi
              ((self_s *. speed) :: Option.value ~default:[] (Hashtbl.find_opt minimise pi))
          | "sim" -> sim_s := !sim_s +. (self_s *. speed)
          | _ -> ())
        (Spans.self_of_spans sp.Spans.spans);
      let per_prog pi = Option.map median (Hashtbl.find_opt minimise pi) in
      let minimise_total = Hashtbl.fold (fun _ ts acc -> acc +. sum ts) minimise 0.0 in
      layer_time_metrics opts ~speed ~traced_requests:(List.length traced) sp.Spans.spans
      @ [
          ("frontend.raw_nodes", total (fun c -> c.raw));
          ( "minimise.ns_per_raw_node",
            ratio (minimise_total *. 1e9)
              (float_of_int (List.fold_left (fun acc s -> acc + s.raw_nodes) 0 traced)) );
          (* fitted over one size family: the fold graphs, cheap per node,
             would flatten the slope *)
          ( "minimise.size_exponent",
            loglog_slope
              (List.filter_map
                 (fun pi ->
                   match per_prog pi with
                   | Some t when W.in_fir_family programs.(pi) ->
                     Some (float_of_int (raw_of pi), t)
                   | _ -> None)
                 (List.init n Fun.id)) );
          ("minimise.steps", total (fun c -> c.steps));
          ("minimise.nodes_removed", total (fun c -> c.removed));
          ("minimise.bitopt_rewrites", total (fun c -> c.rewrites));
          ("minimise.order_edges_removed", total (fun c -> c.order_removed));
          ("cluster.clusters", total (fun c -> c.clusters));
          ("sched.levels", total (fun c -> c.levels));
          ("alloc.inserted_cycles", total (fun c -> c.inserted));
          ("alloc.moves", total (fun c -> c.moves));
          ( "sim.cycles_per_s",
            ratio
              (float_of_int
                 (List.fold_left (fun acc s -> acc + snd (Hashtbl.find reqs s.req)) 0 traced))
              !sim_s );
          ("trace.overhead_pct", trace_overhead samples);
        ]
      (* reported for the large-unroll members only (see [per_layer]) *)
      @ List.init n (fun pi ->
            ( "minimise.ns_per_raw_node." ^ programs.(pi).W.name,
              match per_prog pi with
              | Some t -> t *. 1e9 /. float_of_int (raw_of pi)
              | None -> 0.0 ))
    end
  in
  {
    setup_s = passes.setup_s;
    speed;
    samples;
    tile_cycles = int_of_float (total (fun c -> c.cycles));
    peak_heap_mb = passes.peak_mb;
    layer;
  }

(* {2 serve-mix: a new in-process daemon per session} *)

(* Smaller than a session's working set, so hits run beside inserts and
   evictions; larger than the twelve recent requests that repeats and
   respells draw from, so those can hit. *)
let cache_size = 16

let field path v =
  List.fold_left (fun acc name -> Option.bind acc (Json.member name)) (Some v) path

let int_field path v = match field path v with Some (Json.Int n) -> n | _ -> 0

let str_field path v =
  match field path v with Some (Json.Str s) -> Some s | _ -> None

let tile_config overrides =
  let tile =
    List.fold_left
      (fun tile (knob, v) ->
        match knob with
        | "alus" -> Arch.with_alu_count v tile
        | "window" -> Arch.with_move_window v tile
        | "buses" -> Arch.with_buses v tile
        | other -> invalid_arg ("unknown tile knob " ^ other))
      Flow.default_config.Flow.tile overrides
  in
  Arch.validate tile;
  { Flow.default_config with Flow.tile; incremental = true }

(* Every distinct request must be answerable: a kernel name that
   resolves, a source the front end accepts (a respelling must parse to
   the very program it respells), tile knobs that validate. *)
let validate_sessions sessions =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun (r : W.request) ->
         if not (Hashtbl.mem seen r.W.line) then begin
           Hashtbl.add seen r.W.line ();
           let config = tile_config r.W.overrides in
           let req = Json.parse r.W.line in
           match (str_field [ "kernel" ] req, str_field [ "source" ] req) with
           | Some name, None -> ignore (Fpfa_kernels.Kernels.find name)
           | None, Some source when r.W.cls = W.Respell ->
             if
               Cfront.Parser.parse_program source
               <> Cfront.Parser.parse_program r.W.program.W.source
             then failwith ("respelling changed the program: " ^ r.W.line)
           | None, Some source -> ignore (Staged.of_source ~config source)
           | _ -> failwith ("malformed request " ^ r.W.line)
         end))
    sessions

let path_of resp =
  match (str_field [ "cached" ] resp, str_field [ "resumed_from" ] resp) with
  | Some "request", _ -> "request"
  | Some _, _ -> "mapping"
  | None, Some "patched" -> "patched"
  | None, Some _ -> "resumed"
  | None, None -> "cold"

let paths = [ "request"; "mapping"; "resumed"; "patched"; "cold" ]
let compiled_paths = [ "resumed"; "patched"; "cold" ]

(* The envelope's payload: everything but cache provenance and latency. *)
let payload resp =
  String.concat "|"
    (List.map
       (fun name -> Json.to_string (Option.value ~default:Json.Null (Json.member name resp)))
       [ "ok"; "digest"; "result" ])

let stats_request = Json.parse {|{"op":"stats"}|}

(* Four sessions: about as many seconds of work as the compile
   workloads' [heap_passes]. *)
let serve_heap_passes = 4

let run_serve ~(opts : opts) =
  let setup () =
    let sessions = W.serve_sessions ~seed:opts.seed in
    validate_sessions sessions;
    (sessions, Serve.create ~jobs:1 ~cache_size ())
  in
  let (sessions, daemon), first_s = timed setup in
  let resetup () =
    let (_, d), s = timed setup in
    Serve.shutdown d;
    s
  in
  let sp = Spans.create () in
  let samples = ref [] in
  (* request id -> request, path *)
  let reqs = Hashtbl.create 8192 in
  (* request line -> the payload it was first served with *)
  let served = Hashtbl.create 1024 in
  let report_failure (r : W.request) why =
    info "FAILED %s request (%s): %s" (W.class_name r.W.cls) why r.W.line
  in
  let next_req = ref 0 and tallies = ref None in
  let daemon = ref daemon in
  (* A traced run serves each session twice, untraced then traced. *)
  let pass i traced =
    sp.Spans.on <- traced;
    let session = sessions.((if opts.traced then i / 2 else i) mod W.sessions) in
    let d = !daemon in
    Array.iter
      (fun (r : W.request) ->
        let req = !next_req in
        incr next_req;
        let t = now () in
        let line =
          Spans.request sp ~req (fun () ->
              Spans.layer sp "serve" (fun () -> Serve.handle_line d r.W.line))
        in
        let latency = now () -. t in
        let resp = Json.parse line in
        let got = payload resp in
        let why =
          if field [ "ok" ] resp <> Some (Json.Bool true) then Some "error envelope"
          else
            match Hashtbl.find_opt served r.W.line with
            | None ->
              Hashtbl.add served r.W.line (r, got);
              None
            | Some (_, first) ->
              if String.equal got first then None else Some "payload differs between answers"
        in
        Option.iter (report_failure r) why;
        let path = path_of resp in
        Hashtbl.replace reqs req (r, path);
        (* raw nodes count only for answers that compiled something *)
        let raw_nodes =
          if List.mem path compiled_paths then int_field [ "result"; "nodes_raw" ] resp else 0
        in
        samples := { req; latency; traced; passed = why = None; raw_nodes } :: !samples)
      session;
    (* each session starts on a new daemon; the cache tallies of the first
       traced one are the run's *)
    if traced && !tallies = None then tallies := Some (Serve.handle d stats_request);
    Serve.shutdown d;
    daemon := Serve.create ~jobs:1 ~cache_size ()
  in
  let passes = run_passes ~opts ~first_s ~resetup ~heap_passes:serve_heap_passes pass in
  let speed = passes.speed in
  sp.Spans.on <- false;
  Serve.shutdown !daemon;
  (* Outside the window: every distinct request against a cache-off
     daemon, and every distinct program x tile config through the
     conformance check against the reference interpreter. *)
  let reference = Serve.create ~jobs:1 ~cache_size:0 () in
  let conformance = Hashtbl.create 128 in
  let conforms (r : W.request) =
    let p = r.W.program in
    let key =
      p.W.name ^ Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.W.overrides))
    in
    match Hashtbl.find_opt conformance key with
    | Some v -> v
    | None ->
      let v =
        match Flow.map_source ~config:(tile_config r.W.overrides) p.W.source with
        | result ->
          let regions, _ = Sim.run ~memory_init:p.W.inputs result.Flow.job in
          if Flow.verify ~memory_init:p.W.inputs result && matches_interp p regions then
            Some result.Flow.metrics.Mapping.Metrics.cycles
          else None
        | exception _ -> None
      in
      Hashtbl.add conformance key v;
      v
  in
  let bad_lines = Hashtbl.create 16 in
  Hashtbl.iter
    (fun line ((r : W.request), got) ->
      let expected = Json.parse (Serve.handle_line reference line) in
      let why =
        if not (String.equal got (payload expected)) then
          Some "payload differs from the cache-off daemon's"
        else if r.W.verify && field [ "result"; "verified" ] expected <> Some (Json.Bool true)
        then Some "verify request not verified"
        else
          match conforms r with
          | None -> Some "conformance check failed"
          | Some cycles when cycles <> int_field [ "result"; "metrics"; "cycles" ] expected ->
            Some "cycles differ from a direct compile"
          | Some _ -> None
      in
      Option.iter (fun why -> Hashtbl.replace bad_lines line why) why)
    served;
  Serve.shutdown reference;
  let samples =
    List.rev_map
      (fun s ->
        let r, _ = Hashtbl.find reqs s.req in
        match Hashtbl.find_opt bad_lines r.W.line with
        | Some why ->
          report_failure r why;
          { s with passed = false }
        | None -> s)
      !samples
  in
  let layer =
    if not opts.traced then []
    else begin
      let traced = List.filter (fun s -> s.traced) samples in
      let p50_where pred =
        median
          (List.filter_map
             (fun s ->
               let r, path = Hashtbl.find reqs s.req in
               if pred r path then Some (s.latency *. speed *. 1000.0) else None)
             traced)
      in
      let stats = Option.value ~default:Json.Null !tallies in
      let tally path = float_of_int (int_field ("result" :: path) stats) in
      let hit_ratio level =
        let h = tally [ "cache"; level; "hits" ] and m = tally [ "cache"; level; "misses" ] in
        ratio h (h +. m)
      in
      layer_time_metrics opts ~speed ~traced_requests:(List.length traced) sp.Spans.spans
      @ [
          ("serve.l1_hit_ratio", hit_ratio "request");
          ("serve.l2_hit_ratio", hit_ratio "mapping");
          ( "serve.evictions",
            tally [ "cache"; "request"; "evictions" ] +. tally [ "cache"; "mapping"; "evictions" ] );
          ("serve.resumed", tally [ "resumed" ]);
          ("serve.patched", tally [ "incr"; "patched" ]);
          ("serve.patched_fallback", tally [ "incr"; "fallback" ]);
          ("serve.dirty_nodes", tally [ "incr"; "dirty_nodes" ]);
          ("trace.overhead_pct", trace_overhead samples);
        ]
      @ List.map
          (fun path ->
            (Printf.sprintf "serve.path.%s.p50_ms" path, p50_where (fun _ p -> p = path)))
          paths
      @ List.map
          (fun cls ->
            ( Printf.sprintf "serve.class.%s.p50_ms" (W.class_name cls),
              p50_where (fun (r : W.request) _ -> r.W.cls = cls) ))
          W.classes
    end
  in
  {
    setup_s = passes.setup_s;
    speed;
    samples;
    tile_cycles =
      Hashtbl.fold (fun _ v acc -> match v with Some c -> acc + c | None -> acc) conformance 0;
    peak_heap_mb = passes.peak_mb;
    layer;
  }

(* {2 Reporting} *)

(* Every per-layer metric with its unit, in a fixed order: a traced run
   prints all of them, 0 for a layer its workload never calls. *)
let per_layer =
  List.concat_map (fun l -> [ (l ^ ".ms", "ms"); (l ^ ".minor_words", "words") ]) layer_names
  @ [
      ("frontend.raw_nodes", "count");
      ("minimise.ns_per_raw_node", "ns");
      ("minimise.size_exponent", "slope");
      ("minimise.steps", "count");
      ("minimise.nodes_removed", "count");
      ("minimise.bitopt_rewrites", "count");
      ("minimise.order_edges_removed", "count");
      ("cluster.clusters", "count");
      ("sched.levels", "count");
      ("alloc.inserted_cycles", "count");
      ("alloc.moves", "count");
      ("sim.cycles_per_s", "1/s");
      ("serve.l1_hit_ratio", "ratio");
      ("serve.l2_hit_ratio", "ratio");
      ("serve.evictions", "count");
      ("serve.resumed", "count");
      ("serve.patched", "count");
      ("serve.patched_fallback", "count");
      ("serve.dirty_nodes", "count");
    ]
  @ List.map (fun p -> (Printf.sprintf "serve.path.%s.p50_ms" p, "ms")) paths
  @ List.map (fun c -> (Printf.sprintf "serve.class.%s.p50_ms" (W.class_name c), "ms")) W.classes
  @ [ ("trace.overhead_pct", "%") ]
  @ List.map (fun (p : W.program) -> ("minimise.ns_per_raw_node." ^ p.W.name, "ns")) (W.large ())

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The timed window is the sum of the request latencies: the benchmark's
   own checks between requests, and the daemon restarts between serve
   sessions, lie outside it. Times are multiplied by [speed]. *)
let end_to_end run ~speed =
  let attempted = List.length run.samples in
  let latencies = List.map (fun s -> s.latency *. speed) run.samples in
  let window_s = sum latencies in
  let raw_done =
    List.fold_left (fun acc s -> if s.passed then acc + s.raw_nodes else acc) 0 run.samples
  in
  let tail_s, _, _ = tail latencies in
  [
    ("setup_s", run.setup_s *. speed, "s");
    ("throughput_rps", ratio (float_of_int attempted) window_s, "1/s");
    ("latency_p50_ms", median latencies *. 1000.0, "ms");
    ("latency_tail_ms", tail_s *. 1000.0, "ms");
    ("raw_nodes_per_s", ratio (float_of_int raw_done) window_s, "1/s");
    ("tile_cycles", float_of_int run.tile_cycles, "cycles");
    ("peak_heap_mb", run.peak_heap_mb, "MB");
  ]

let report (opts : opts) run =
  let attempted = List.length run.samples in
  let failed = List.length (List.filter (fun s -> not s.passed) run.samples) in
  let _, pct, n = tail (List.map (fun s -> s.latency) run.samples) in
  info "workload=%s seed=%d trace=%d requests=%d" opts.workload opts.seed
    (if opts.traced then 1 else 0) attempted;
  info "latency_tail_ms is p%.2f over n=%d" pct n;
  info "failed_ratio=%d/%d" failed attempted;
  info "unscaled %s"
    (String.concat " "
       (List.map
          (fun (name, v, _) -> Printf.sprintf "%s=%.6g" name v)
          (end_to_end run ~speed:1.0)));
  let metrics =
    if opts.traced then
      List.map
        (fun (name, unit_) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name run.layer), unit_))
        per_layer
    else end_to_end run ~speed:run.speed
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_)
          metrics));
  if failed > 0 then exit 1

let workloads = [ "corpus-cold"; "large-unroll"; "serve-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref "" and probe = ref "" in
  let usage =
    "bench.exe --workload (corpus-cold|large-unroll|serve-mix) --seed N --seconds S \
     --trace (0|1) --probe PROBE_EXE [--spans FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run");
      ("--seed", Arg.Set_int seed, " seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics");
      ("--probe", Arg.Set_string probe, " the host-speed probe executable");
      ("--spans", Arg.Set_string spans_out, " write traced spans here (JSON lines)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload workloads))
    || (!trace <> 0 && !trace <> 1)
    || !seconds <= 0.0 || !probe = ""
  then begin
    prerr_endline usage;
    exit 2
  end;
  let opts =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      spans_out = (if !spans_out = "" then None else Some !spans_out);
      probe = !probe;
    }
  in
  let run =
    match opts.workload with
    (* passes after which the heap is read: a few seconds of work each *)
    | "corpus-cold" -> run_compile ~opts ~heap_passes:40 W.corpus
    | "large-unroll" -> run_compile ~opts ~heap_passes:2 W.large
    | _ -> run_serve ~opts
  in
  report opts run

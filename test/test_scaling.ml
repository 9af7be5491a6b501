(* Scaling gate for minimisation: the allocation of [Simplify.minimize]
   must grow close to linearly in raw CDFG nodes over the FIR size family
   (fir-128/256/500, 1.4k to 5.5k raw nodes). Allocated minor words, not
   time, are fitted: they are exact for a given build and independent of
   the host's load, so the gate cannot flake. A rule that goes back to
   building an O(fan-out) list on every visit pushes the log-log slope
   well past the bound (the list-building simplifier measured 1.82). *)

module Flow = Fpfa_core.Flow
module Kernels = Fpfa_kernels.Kernels

let max_exponent = 1.2

let raw_graph (k : Kernels.t) =
  Flow.Staged.raw_graph
    (Flow.Staged.of_source ~config:Flow.default_config ~func:"main"
       k.Kernels.source)

(* (raw nodes, minor words allocated by one minimisation) *)
let measure k =
  let g = Cdfg.Graph.copy (raw_graph k) in
  let nodes = Cdfg.Graph.node_count g in
  let w0 = Gc.minor_words () in
  ignore (Transform.Simplify.minimize ~validate:false g);
  (float_of_int nodes, Gc.minor_words () -. w0)

(* least-squares slope of log y against log x *)
let loglog_slope points =
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun acc p -> acc +. f p) 0.0 pts /. n in
  let mx = mean fst and my = mean snd in
  let cov = mean (fun (x, y) -> (x -. mx) *. (y -. my)) in
  let var = mean (fun (x, _) -> (x -. mx) *. (x -. mx)) in
  cov /. var

let test_fir_family () =
  let points = List.map (fun taps -> measure (Kernels.fir ~taps)) [ 128; 256; 500 ] in
  let slope = loglog_slope points in
  if slope > max_exponent then
    Alcotest.failf "minimise allocation exponent %.2f > %.2f over %s" slope
      max_exponent
      (String.concat ", "
         (List.map
            (fun (x, y) -> Printf.sprintf "%.0f nodes: %.0f words" x y)
            points))

(* Allocation ceilings per raw node on fir-256 (2.8k raw nodes). The
   frontend's cost was dominated by a balanced-set mutation journal
   (O(log n) and an allocation per mark) and by per-producer edge lists
   in the index check run by [Graph.validate]; minimisation's by a
   [Graph.node] record built per rule visit, polymorphic CSE keys and a
   per-step set union in the engine. Before they were removed the two
   measured 436 and 512 words per raw node; now 157 and 92. Putting the
   set journal back alone gives about 225 and 144, building a node record
   per rule visit alone about 252 for minimisation, so either crosses a
   ceiling. *)
let frontend_ceiling = 200.0
let minimise_ceiling = 125.0

let test_words_per_raw_node () =
  let k = Kernels.fir ~taps:256 in
  let w0 = Gc.minor_words () in
  let s =
    Flow.Staged.of_source ~config:Flow.default_config ~func:"main"
      k.Kernels.source
  in
  let frontend = Gc.minor_words () -. w0 in
  let raw = Flow.Staged.raw_graph s in
  let nodes = float_of_int (Cdfg.Graph.node_count raw) in
  let g = Cdfg.Graph.copy raw in
  let w0 = Gc.minor_words () in
  ignore (Transform.Simplify.minimize g);
  let minimise = Gc.minor_words () -. w0 in
  let check what words ceiling =
    let per = words /. nodes in
    if per > ceiling then
      Alcotest.failf "%s allocates %.0f words per raw node on fir-256 (> %.0f)"
        what per ceiling
  in
  check "Staged.of_source" frontend frontend_ceiling;
  check "Simplify.minimize" minimise minimise_ceiling

(* Allocation ceilings per cluster for the mapping back-end (Sched.run,
   Alloc.run) on fir-256 and crc8-16. The allocator used to keep its
   per-cycle resource counts in tuple-keyed hash tables (a key built and
   hashed on every probe), every busy interval of every register in a list
   rebuilt per probe, and its candidate move cycles in lists rebuilt per
   operand and attempt; the scheduler re-sorted every displaced cluster at
   every level. Words per cluster, fir-256 / crc8-16:

   {v
                              Alloc.run      Sched.run
   list-and-table back-end    7933 / 4181    1433 / 122
   linear back-end             515 /  412      29 /  76
   + tuple-keyed counters     1404 /  543
   + interval lists           1305 / 1526
   + candidate lists          4559 / 1753
   + per-level re-sort                       1433 / 122
   v}

   Each of the four regressions crosses a ceiling on both programs. *)
let ceilings = [ ("fir-256", 800.0, 100.0); ("crc8-16", 500.0, 100.0) ]

let test_backend_words_per_cluster () =
  List.iter
    (fun (k : Kernels.t) ->
      let _, alloc_ceiling, sched_ceiling =
        List.find (fun (name, _, _) -> name = k.Kernels.name) ceilings
      in
      let r = Flow.map_source ~func:"main" k.Kernels.source in
      let clustering = r.Flow.clustering in
      let clusters =
        float_of_int (Array.length clustering.Mapping.Cluster.clusters)
      in
      let w0 = Gc.minor_words () in
      let sched = Mapping.Sched.run ~alu_count:5 clustering in
      let sched_words = Gc.minor_words () -. w0 in
      let w0 = Gc.minor_words () in
      ignore (Mapping.Alloc.run ~tile:Fpfa_arch.Arch.paper_tile sched);
      let alloc_words = Gc.minor_words () -. w0 in
      let check what words ceiling =
        let per = words /. clusters in
        if per > ceiling then
          Alcotest.failf "%s allocates %.0f words per cluster on %s (> %.0f)"
            what per k.Kernels.name ceiling
      in
      check "Alloc.run" alloc_words alloc_ceiling;
      check "Sched.run" sched_words sched_ceiling)
    [ Kernels.fir ~taps:256; Kernels.crc8 ~bytes:16 ]

(* Allocation ceilings per cluster for phase 1 (Cluster.run followed by
   Cluster.validate) on the minimised fir-256 and crc8-16. Clustering used
   to copy a member set, sort it and build a table for every candidate it
   probed, rebuild a node list inside every comparison of the cluster
   numbering sort, and keep edges and reachability in tuple-keyed tables;
   validation rebuilt the topological order. Words per cluster, fir-256 /
   crc8-16:

   {v
                                    run + validate
   set-and-table clustering         1742 / 1625
   linear clustering                 147 /  103
   + per-comparison position lists   276 /  242
   + set-based cap probe             359 /  364
   v}

   Either regression crosses a ceiling on both programs. [Legalize.check]
   accounts for 106 / 57 of the linear figure. *)
let cluster_ceilings = [ ("fir-256", 200.0); ("crc8-16", 150.0) ]

let test_cluster_words_per_cluster () =
  List.iter
    (fun (k : Kernels.t) ->
      let ceiling = List.assoc k.Kernels.name cluster_ceilings in
      let r = Flow.map_source ~func:"main" k.Kernels.source in
      let g = r.Flow.clustering.Mapping.Cluster.graph in
      let w0 = Gc.minor_words () in
      let t = Mapping.Cluster.run g in
      Mapping.Cluster.validate t Fpfa_arch.Arch.paper_alu;
      let words = Gc.minor_words () -. w0 in
      let per = words /. float_of_int (Array.length t.Mapping.Cluster.clusters) in
      if per > ceiling then
        Alcotest.failf
          "Cluster.run + Cluster.validate allocate %.0f words per cluster on \
           %s (> %.0f)"
          per k.Kernels.name ceiling)
    [ Kernels.fir ~taps:256; Kernels.crc8 ~bytes:16 ]

let test_slope_fit () =
  Alcotest.(check (float 1e-9)) "exact power law" 1.5
    (loglog_slope [ (1.0, 1.0); (4.0, 8.0); (16.0, 64.0) ])

let suite =
  [
    Alcotest.test_case "log-log fit" `Quick test_slope_fit;
    Alcotest.test_case "minimise words exponent <= 1.2 on fir family" `Quick
      test_fir_family;
    Alcotest.test_case "words per raw node under ceilings on fir-256" `Quick
      test_words_per_raw_node;
    Alcotest.test_case "back-end words per cluster under ceilings" `Quick
      test_backend_words_per_cluster;
    Alcotest.test_case "clustering words per cluster under ceilings" `Quick
      test_cluster_words_per_cluster;
  ]

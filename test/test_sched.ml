(* Unit + property tests for phase 2 (level scheduling). *)

module Cluster = Mapping.Cluster
module Sched = Mapping.Sched

let test_fig4_before () =
  (* Unbounded ALUs: levels must match paper Fig. 4(a). *)
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let sched = Sched.run ~alu_count:100 clustering in
  let levels =
    Array.to_list sched.Sched.levels |> List.map (List.sort compare)
  in
  Alcotest.(check (list (list int)))
    "Fig 4(a)"
    (List.map (List.sort compare) Fpfa_kernels.Paper_examples.fig4_before)
    levels

let test_fig4_after () =
  (* 5 ALUs: Clu6 is displaced and a new level is inserted — Fig. 4(b). *)
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let sched = Sched.run ~alu_count:5 clustering in
  let levels =
    Array.to_list sched.Sched.levels |> List.map (List.sort compare)
  in
  Alcotest.(check (list (list int)))
    "Fig 4(b)"
    (List.map (List.sort compare) Fpfa_kernels.Paper_examples.fig4_after)
    levels;
  Alcotest.(check int) "one level inserted" 5 (Sched.level_count sched);
  Alcotest.(check int) "critical path was 4" 4 (Sched.critical_path_levels sched)

let test_capacity_never_exceeded () =
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  List.iter
    (fun alu_count ->
      let sched = Sched.run ~alu_count clustering in
      Sched.validate sched ~alu_count)
    [ 1; 2; 3; 5; 11 ]

let test_one_alu_serialises () =
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let sched = Sched.run ~alu_count:1 clustering in
  Alcotest.(check int) "eleven levels" 11 (Sched.level_count sched)

let test_mobility () =
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let sched = Sched.run ~alu_count:5 clustering in
  (* Clu10 ends the critical path: zero mobility. *)
  Alcotest.(check int) "sink mobility" 0 (Sched.mobility sched 10);
  (* every mobility is non-negative *)
  Array.iteri
    (fun cid _ ->
      Alcotest.(check bool) "non-negative" true (Sched.mobility sched cid >= 0))
    clustering.Cluster.clusters

let test_critical_first () =
  (* With capacity 5 and 6 ready clusters of which one has mobility, the
     mobile one (Clu6 has the highest cid among critical ties... ) is
     deferred: exactly the Fig. 4 behaviour checked structurally. *)
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let sched = Sched.run ~alu_count:5 clustering in
  Alcotest.(check int) "Clu6 deferred to level 1" 1 sched.Sched.level_of.(6)

let test_empty_graph () =
  let g = Cdfg.Graph.create "empty" in
  Cdfg.Graph.declare_region g "r" { Cdfg.Graph.size = Some 1; implicit = true };
  let ss = Cdfg.Graph.add g (Cdfg.Graph.Ss_in "r") [] in
  ignore (Cdfg.Graph.add g (Cdfg.Graph.Ss_out "r") [ ss ]);
  let clustering = Cluster.run g in
  let sched = Sched.run clustering in
  Alcotest.(check int) "no levels" 0 (Sched.level_count sched)

let test_kernel_schedules_valid () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let g = Cdfg.Builder.build_program k.Fpfa_kernels.Kernels.source in
      ignore (Transform.Simplify.minimize g);
      let clustering = Cluster.run g in
      let sched = Sched.run ~alu_count:5 clustering in
      Sched.validate sched ~alu_count:5;
      (* list scheduling can never beat the critical path *)
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " >= critical path")
        true
        (Sched.level_count sched >= Sched.critical_path_levels sched))
    Fpfa_kernels.Kernels.all

(* Properties on random graphs. *)
let schedule_is_valid =
  QCheck.Test.make ~name:"schedule valid on random graphs" ~count:100
    (QCheck.make QCheck.Gen.(pair (int_range 0 5_000) (int_range 1 6)))
    (fun (seed, alu_count) ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:50 () in
      let clustering = Cluster.run g in
      let sched = Sched.run ~alu_count clustering in
      Sched.validate sched ~alu_count;
      true)

let more_alus_never_hurt =
  QCheck.Test.make ~name:"more ALUs never lengthen the schedule" ~count:60
    (QCheck.make QCheck.Gen.(int_range 0 5_000))
    (fun seed ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:50 () in
      let clustering = Cluster.run g in
      let levels n = Sched.level_count (Sched.run ~alu_count:n clustering) in
      levels 1 >= levels 2 && levels 2 >= levels 5 && levels 5 >= levels 10)

(* The list scheduler as first written: every level re-sorts all of its
   ready clusters, displaced ones included, by (priority, cid). Sched.run
   carries displaced clusters in a heap instead; it must place every
   cluster on the same level and in the same order. *)
let reference_levels ~alu_count ~key (clustering : Cluster.t) =
  let clusters = clustering.Cluster.clusters in
  let n = Array.length clusters in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (e : Cluster.edge) ->
      preds.(e.Cluster.dst) <- (e.Cluster.src, e.Cluster.weight) :: preds.(e.Cluster.dst);
      succs.(e.Cluster.src) <- e.Cluster.dst :: succs.(e.Cluster.src))
    clustering.Cluster.edges;
  let level_of = Array.make n (-1) in
  let waiting = Array.map List.length preds in
  let buckets = Hashtbl.create 16 in
  let push cid lvl =
    Hashtbl.replace buckets lvl
      (cid :: Option.value ~default:[] (Hashtbl.find_opt buckets lvl))
  in
  Array.iteri (fun cid w -> if w = 0 then push cid 0) waiting;
  let remaining = ref n and levels = ref [] and level = ref 0 in
  while !remaining > 0 do
    let this_level = ref [] and alus = ref 0 in
    let rec sweep () =
      match Option.value ~default:[] (Hashtbl.find_opt buckets !level) with
      | [] -> ()
      | ready ->
        Hashtbl.remove buckets !level;
        List.iter
          (fun cid ->
            let alu = Sched.uses_alu clusters.(cid) in
            if alu && !alus >= alu_count then push cid (!level + 1)
            else begin
              level_of.(cid) <- !level;
              this_level := cid :: !this_level;
              if alu then incr alus;
              decr remaining;
              List.iter
                (fun dst ->
                  waiting.(dst) <- waiting.(dst) - 1;
                  if waiting.(dst) = 0 then
                    push dst
                      (List.fold_left
                         (fun acc (src, w) -> max acc (level_of.(src) + w))
                         !level preds.(dst)))
                succs.(cid)
            end)
          (List.sort (fun a b -> compare (key a, a) (key b, b)) ready);
        sweep ()
    in
    sweep ();
    levels := List.rev !this_level :: !levels;
    incr level
  done;
  List.rev !levels

let heap_pool_matches_resorting =
  QCheck.Test.make ~name:"heap pool places like per-level re-sorting"
    ~count:150
    (QCheck.make
       QCheck.Gen.(triple (int_range 0 5_000) (int_range 1 6) (int_range 0 2)))
    (fun (seed, alu_count, p) ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:80 () in
      let clustering = Cluster.run g in
      let priority = [| Sched.Mobility; Sched.Alap_first; Sched.Cid_order |].(p) in
      let sched = Sched.run ~alu_count ~priority clustering in
      let key cid =
        match priority with
        | Sched.Mobility -> Sched.mobility sched cid
        | Sched.Alap_first -> sched.Sched.alap.(cid)
        | Sched.Cid_order -> 0
      in
      Array.to_list sched.Sched.levels
      = reference_levels ~alu_count ~key clustering)

let suite =
  [
    Alcotest.test_case "Fig 4(a) before" `Quick test_fig4_before;
    Alcotest.test_case "Fig 4(b) after" `Quick test_fig4_after;
    Alcotest.test_case "capacity" `Quick test_capacity_never_exceeded;
    Alcotest.test_case "one ALU" `Quick test_one_alu_serialises;
    Alcotest.test_case "mobility" `Quick test_mobility;
    Alcotest.test_case "critical first" `Quick test_critical_first;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "kernel schedules" `Quick test_kernel_schedules_valid;
    QCheck_alcotest.to_alcotest schedule_is_valid;
    QCheck_alcotest.to_alcotest more_alus_never_hurt;
    QCheck_alcotest.to_alcotest heap_pool_matches_resorting;
  ]

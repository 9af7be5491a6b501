(* Byte-identity pin: every output the flow produces for the kernel corpus
   and the large unrolled programs, under both settings of
   [Flow.config.incremental], must match the committed table
   [identity.expected] exactly. A performance change to the simplifier
   that alters a single node, edge, job byte or cycle fails here.

   Each row: program name, incremental flag, [Serialize.digest] of the
   minimised graph, MD5 of [Serialize.to_string] of it, MD5 of
   [Mapping.Encode.to_string] of the job, simulated-schedule cycles.

   To regenerate after an intended output change, run the suite with
   FPFA_IDENTITY_WRITE=<absolute path of test/identity.expected>. *)

module Flow = Fpfa_core.Flow
module Kernels = Fpfa_kernels.Kernels

(* dune copies the table next to the test binary ([deps] in test/dune) *)
let table_file =
  Filename.concat (Filename.dirname Sys.executable_name) "identity.expected"

let programs () =
  Kernels.all
  @ [
      Kernels.fir ~taps:128;
      Kernels.fir ~taps:256;
      Kernels.fir ~taps:500;
      Kernels.fir_delay ~taps:256;
      Kernels.matmul ~n:8;
      Kernels.crc8 ~bytes:16;
    ]

let md5 s = Digest.to_hex (Digest.string s)

let row (k : Kernels.t) incremental =
  let config = { Flow.default_config with Flow.incremental } in
  let r = Flow.map_source ~config ~func:"main" k.Kernels.source in
  Printf.sprintf "%s %b %s %s %s %d" k.Kernels.name incremental
    (Cdfg.Serialize.digest r.Flow.graph)
    (md5 (Cdfg.Serialize.to_string r.Flow.graph))
    (md5 (Mapping.Encode.to_string r.Flow.job))
    r.Flow.metrics.Mapping.Metrics.cycles

let actual () =
  List.concat_map (fun k -> [ row k false; row k true ]) (programs ())

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Checks [rows] against the committed table [file], or writes them to
   the path held by the environment variable [write] when it is set. *)
let check_table ~write ~file ~what rows =
  match Sys.getenv_opt write with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) rows;
    close_out oc
  | None ->
    let expected = read_lines file in
    Alcotest.(check int) "row count" (List.length expected) (List.length rows);
    List.iter2 (fun e a -> Alcotest.(check string) what e a) expected rows

let test_table () =
  check_table ~write:"FPFA_IDENTITY_WRITE" ~file:table_file ~what:"identity row"
    (actual ())

(* Second pin: the mapping back-end (Sched, Alloc) under the allocator
   options and tile overrides the default config never reaches. Each
   program is minimised and clustered once under the default config; the
   variants re-run only scheduling and allocation on that clustering.

   Rows: "<program> alloc <variant> <job MD5> <cycles>" (or "error <msg>"
   when the variant cannot be allocated), then
   "<program> sched <priority> <digest per ALU count 1/2/3/5/8>", where a
   digest is the MD5 of the level table.

   To regenerate after an intended output change, run the suite with
   FPFA_VARIANTS_WRITE=<absolute path of test/variants.expected>. *)
module Arch = Fpfa_arch.Arch

let variants_file =
  Filename.concat (Filename.dirname Sys.executable_name) "variants.expected"

let variant_programs () =
  Kernels.all
  @ [
      Kernels.fir ~taps:128;
      Kernels.fir ~taps:256;
      Kernels.fir_delay ~taps:256;
      Kernels.matmul ~n:8;
      Kernels.crc8 ~bytes:16;
    ]

let alloc_variants =
  let o = Mapping.Alloc.default_options in
  let t = Arch.paper_tile in
  [
    ("forwarding", { o with Mapping.Alloc.forwarding = true }, t);
    ("interleave", { o with Mapping.Alloc.interleave = true }, t);
    ("no-locality", { o with Mapping.Alloc.locality = false }, t);
    ( "all-three",
      { Mapping.Alloc.forwarding = true; interleave = true; locality = false },
      t );
    ("alus-3", o, Arch.with_alu_count 3 t);
    ("alus-4", o, Arch.with_alu_count 4 t);
    ("alus-4-window-8", o, Arch.with_move_window 8 (Arch.with_alu_count 4 t));
    ("window-2", o, Arch.with_move_window 2 t);
    ("buses-8", o, Arch.with_buses 8 t);
  ]

let priorities =
  [
    ("mobility", Mapping.Sched.Mobility);
    ("alap-first", Mapping.Sched.Alap_first);
    ("cid-order", Mapping.Sched.Cid_order);
  ]

let levels_digest (s : Mapping.Sched.t) =
  let b = Buffer.create 256 in
  Array.iter
    (fun cids ->
      List.iter (fun cid -> Buffer.add_string b (string_of_int cid ^ " ")) cids;
      Buffer.add_char b '\n')
    s.Mapping.Sched.levels;
  md5 (Buffer.contents b)

let variant_rows (k : Kernels.t) =
  let r = Flow.map_source ~func:"main" k.Kernels.source in
  let clustering = r.Flow.clustering in
  let name = k.Kernels.name in
  let alloc_row (vname, options, tile) =
    let outcome =
      match
        Mapping.Alloc.run ~options ~tile
          (Mapping.Sched.run ~alu_count:tile.Arch.alu_count clustering)
      with
      | job ->
        Printf.sprintf "%s %d"
          (md5 (Mapping.Encode.to_string job))
          (Mapping.Metrics.of_job job).Mapping.Metrics.cycles
      | exception Mapping.Alloc.Allocation_error msg -> "error " ^ msg
    in
    Printf.sprintf "%s alloc %s %s" name vname outcome
  in
  let sched_row (pname, priority) =
    Printf.sprintf "%s sched %s %s" name pname
      (String.concat " "
         (List.map
            (fun alu_count ->
              levels_digest (Mapping.Sched.run ~alu_count ~priority clustering))
            [ 1; 2; 3; 5; 8 ]))
  in
  List.map alloc_row alloc_variants @ List.map sched_row priorities

let test_variants () =
  check_table ~write:"FPFA_VARIANTS_WRITE" ~file:variants_file
    ~what:"variant row"
    (List.concat_map variant_rows (variant_programs ()))

(* Third pin: phase 1 alone, under every clustering entry point. Each
   program's minimised graph (random DAGs are clustered as generated) is
   clustered four ways: greedy under the paper's ALU, greedy under a wider
   data path, Sarkar edge zeroing and unit clusters.

   Rows: "<program> <clustering> <clusters> <edges> <MD5 of the cluster
   records> <MD5 of the sorted edges> <MD5 of the sorted cluster_of
   bindings>" (or "error <msg>" when the clustering is rejected).

   To regenerate after an intended output change, run the suite with
   FPFA_CLUSTERS_WRITE=<absolute path of test/clusters.expected>. *)
module Cluster = Mapping.Cluster

let clusters_file =
  Filename.concat (Filename.dirname Sys.executable_name) "clusters.expected"

let wide_alu =
  { Arch.max_inputs = 6; max_depth = 3; max_ops = 4; max_multipliers = 2 }

let clusterings =
  [
    ("greedy", fun g -> Cluster.run ~caps:Arch.paper_alu g);
    ("greedy-wide", fun g -> Cluster.run ~caps:wide_alu g);
    ("sarkar", fun g -> Cluster.sarkar g);
    ("unit", Cluster.unit_clusters);
  ]

let ints l = String.concat "," (List.map string_of_int l)

let clustering_row name (cname, f) g =
  let outcome =
    match f g with
    | (t : Cluster.t) ->
      let b = Buffer.create 1024 in
      Array.iter
        (fun (c : Cluster.cluster) ->
          Printf.bprintf b "%d|%s|%s|%s|%s|%s\n" c.Cluster.cid (ints c.ops)
            (match c.root with Some r -> string_of_int r | None -> "-")
            (ints c.stores) (ints c.deletes) (ints c.cinputs))
        t.Cluster.clusters;
      let clusters_md5 = md5 (Buffer.contents b) in
      let edges = List.sort compare t.Cluster.edges in
      let b = Buffer.create 1024 in
      List.iter
        (fun (e : Cluster.edge) ->
          Printf.bprintf b "%d %d %d\n" e.Cluster.src e.dst e.weight)
        edges;
      let edges_md5 = md5 (Buffer.contents b) in
      let bindings =
        List.sort compare
          (Hashtbl.fold (fun id cid acc -> (id, cid) :: acc) t.Cluster.cluster_of [])
      in
      let b = Buffer.create 1024 in
      List.iter (fun (id, cid) -> Printf.bprintf b "%d %d\n" id cid) bindings;
      Printf.sprintf "%d %d %s %s %s"
        (Array.length t.Cluster.clusters)
        (List.length edges) clusters_md5 edges_md5
        (md5 (Buffer.contents b))
    | exception Cluster.Clustering_error msg -> "error " ^ msg
  in
  Printf.sprintf "%s %s %s" name cname outcome

let clustered_programs () =
  let minimised (k : Kernels.t) =
    let r = Flow.map_source ~func:"main" k.Kernels.source in
    (k.Kernels.name, r.Flow.clustering.Cluster.graph)
  in
  List.map minimised (programs ())
  @ List.init 20 (fun i ->
        let seed = i + 1 in
        let ops = 30 + (15 * i) in
        ( Printf.sprintf "random-%d-%d" seed ops,
          Fpfa_kernels.Random_graph.generate ~seed ~ops () ))

let test_clusters () =
  check_table ~write:"FPFA_CLUSTERS_WRITE" ~file:clusters_file
    ~what:"clustering row"
    (List.concat_map
       (fun (name, g) -> List.map (fun c -> clustering_row name c g) clusterings)
       (clustered_programs ()))

let suite =
  [
    Alcotest.test_case "outputs match the pinned table" `Quick test_table;
    Alcotest.test_case "back-end variants match the pinned table" `Quick
      test_variants;
    Alcotest.test_case "clusterings match the pinned table" `Quick
      test_clusters;
  ]

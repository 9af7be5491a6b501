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

let test_table () =
  let rows = actual () in
  match Sys.getenv_opt "FPFA_IDENTITY_WRITE" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) rows;
    close_out oc
  | None ->
    let expected = read_lines table_file in
    Alcotest.(check int) "row count" (List.length expected) (List.length rows);
    List.iter2
      (fun e a -> Alcotest.(check string) "identity row" e a)
      expected rows

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
  let rows = List.concat_map variant_rows (variant_programs ()) in
  match Sys.getenv_opt "FPFA_VARIANTS_WRITE" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) rows;
    close_out oc
  | None ->
    let expected = read_lines variants_file in
    Alcotest.(check int) "row count" (List.length expected) (List.length rows);
    List.iter2
      (fun e a -> Alcotest.(check string) "variant row" e a)
      expected rows

let suite =
  [
    Alcotest.test_case "outputs match the pinned table" `Quick test_table;
    Alcotest.test_case "back-end variants match the pinned table" `Quick
      test_variants;
  ]

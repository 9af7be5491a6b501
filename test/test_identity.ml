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

let suite = [ Alcotest.test_case "outputs match the pinned table" `Quick test_table ]

(* The benchmark's inputs. Every program set and request stream is a pure
   function of the workload seed; the program under test only ever sees
   the generated sources and request lines. *)

module Kernels = Fpfa_kernels.Kernels
module Prng = Fpfa_util.Prng
module Json = Fpfa_util.Json

type program = {
  name : string;
  source : string;
  inputs : (string * int array) list;
      (** region contents for the conformance check *)
}

let of_kernel (k : Kernels.t) =
  { name = k.Kernels.name; source = k.Kernels.source; inputs = k.Kernels.inputs }

let vector rng n = Array.init n (fun _ -> Prng.int_in rng (-20) 20)

(* corpus-cold: the paper's kernel class at sizes that fit the tile. *)
let corpus () = List.map of_kernel Kernels.all

(* The fold-heavy loop of the incremental experiment: every unrolled
   iteration adds an expression whose redundant half cancels, so the raw
   graph grows with [iters] while the minimised graph collapses to a
   handful of nodes — minimisation is nearly all of the compile. *)
let fold_source ~iters ~terms =
  let b = Buffer.create 4096 in
  Buffer.add_string b "void main() {\n  acc = 0;\n";
  Buffer.add_string b
    (Printf.sprintf "  for (i = 0; i < %d; i = i + 1) {\n" iters);
  Buffer.add_string b "    acc = acc + (i + 1) * 3";
  for t = 1 to terms do
    Buffer.add_string b
      (Printf.sprintf " + ((i*%d + %d) - (i*%d + %d)) * ((i + %d) * (i + %d))"
         (t + 2) (t + 5) (t + 2) (t + 5) (t + 7) (t + 11))
  done;
  Buffer.add_string b ";\n  }\n  bias = acc * 3 + 7;\n}\n";
  Buffer.contents b

(* large-unroll: fully unrolled sources from 1.4k to 30k raw nodes, the
   size family a linear-minimise change is judged on. fir-1000 no longer
   fits tile memory, so fir-500 is the largest FIR. *)
let large () =
  List.map of_kernel
    [
      Kernels.fir ~taps:128;
      Kernels.fir ~taps:256;
      Kernels.fir ~taps:500;
      Kernels.fir_delay ~taps:256;
      Kernels.matmul ~n:8;
      Kernels.crc8 ~bytes:16;
    ]
  @ [
      { name = "fold-15k"; source = fold_source ~iters:232 ~terms:4; inputs = [] };
      { name = "fold-30k"; source = fold_source ~iters:464 ~terms:4; inputs = [] };
    ]

(* The FIR size family of large-unroll, over which minimise's size
   exponent is fitted. *)
let in_fir_family p = List.mem p.name [ "fir-128"; "fir-256"; "fir-500" ]

(* {2 serve-mix} *)

type cls = Repeat | Respell | Config | Edit_stmt | Edit_loop | Verify | Fresh

let classes = [ Repeat; Respell; Config; Edit_stmt; Edit_loop; Verify; Fresh ]

let class_name = function
  | Repeat -> "repeat"
  | Respell -> "respell"
  | Config -> "config"
  | Edit_stmt -> "edit-stmt"
  | Edit_loop -> "edit-loop"
  | Verify -> "verify"
  | Fresh -> "fresh"

type request = {
  cls : cls;
  line : string;  (** the request exactly as sent *)
  program : program;  (** what it compiles, before any respelling *)
  overrides : (string * int) list;  (** tile knobs: alus, window, buses *)
  verify : bool;
}

(* Non-corpus programs: a loop whose body holds literal [cl] and one
   statement after the loop holding literal [k]. Editing [k] is the
   statement edit the incremental path patches cheaply; editing [cl]
   dirties every unrolled iteration. *)
type family = { shape : int; taps : int; cl : int; k : int }

let family_program ~seed f =
  let rng = Prng.create (Hashtbl.hash (seed, f.shape, f.taps, f.cl, f.k)) in
  let source, inputs =
    match f.shape with
    | 0 ->
      ( Printf.sprintf
          "void main() {\n  sum = 0;\n  for (i = 0; i < %d; i = i + 1) {\n    sum = sum + a[i] * c[i] * %d;\n  }\n  out = sum * %d + 7;\n}\n"
          f.taps f.cl f.k,
        [ ("a", vector rng f.taps); ("c", vector rng f.taps) ] )
    | _ ->
      ( Printf.sprintf
          "void main() {\n  for (i = 0; i < %d; i++) {\n    y[i] = %d * x[i] + y[i];\n  }\n  tail = x[0] * %d + 1;\n}\n"
          f.taps f.cl f.k,
        [ ("x", vector rng f.taps); ("y", vector rng f.taps) ] )
  in
  {
    name = Printf.sprintf "gen%d-t%d-c%d-k%d" f.shape f.taps f.cl f.k;
    source;
    inputs;
  }

(* The same program under another spelling: a comment and deeper
   indentation change the request text (a request-cache miss) but not
   the CDFG (a mapping-cache hit). *)
let respell ~variant source =
  let pad = String.make (1 + (variant mod 3)) ' ' in
  Printf.sprintf "/* spelling %d */\n%s" variant
    (String.concat "\n"
       (List.map
          (fun l -> if l = "" then l else pad ^ l)
          (String.split_on_char '\n' source)))

let request_line ~source_field ~overrides ~verify =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "compile"); source_field ]
       @ List.map (fun (k, v) -> (k, Json.Int v)) overrides
       @ if verify then [ ("verify", Json.Bool true) ] else []))

(* A request for [program], sent by corpus name ([by_name]), as its
   source, or under another [spelling]. *)
let make ~cls ?spelling ?(overrides = []) ?(verify = false) ~by_name program =
  let source_field =
    match spelling with
    | Some text -> ("source", Json.Str text)
    | None when by_name -> ("kernel", Json.Str program.name)
    | None -> ("source", Json.Str program.source)
  in
  {
    cls;
    line = request_line ~source_field ~overrides ~verify;
    program;
    overrides;
    verify;
  }

(* Tile overrides the config class cycles through: each knob on its own
   and one combination; each keeps every program mappable. *)
let config_variants =
  [
    [ ("alus", 3) ];
    [ ("alus", 4) ];
    [ ("window", 2) ];
    [ ("buses", 8) ];
    [ ("alus", 4); ("window", 8) ];
  ]

(* One serve-mix session. The mix is synthetic: no traffic was recorded
   to take proportions from, so each class's share follows from one rule.

   - fresh: each corpus kernel (by name) and each generated base program
     (as source) once;
   - config: each of those programs once more under one tile override,
     released after the program;
   - verify: each corpus kernel once with ["verify": true];
   - edit-stmt / edit-loop: one statement edit and one loop edit of each
     generated base, released once the base has been sent;
   - repeat / respell: as many requests as all the classes above together
     (hits as often as misses), half re-sending one of the last twelve
     requests verbatim, half re-spelling it.

   The multiset of programs and configs is fixed, so tile cycles and the
   per-class work do not depend on the seed; the session seed decides the
   interleaving and which recent requests are repeated or respelled, and
   with it every cache hit and eviction. *)
let session ~seed ~index =
  let rng = Prng.create (Hashtbl.hash (0x5E17E, seed, index)) in
  let kernels = List.map of_kernel Kernels.all in
  (* ten generated programs of 12 to 48 taps, the size range of the
     corpus kernels *)
  let bases =
    List.concat_map
      (fun shape ->
        List.mapi
          (fun i taps ->
            { shape; taps; cl = 3 + (2 * i); k = 5 + i + (7 * shape) })
          (if shape = 0 then [ 16; 24; 32; 40; 48 ] else [ 12; 20; 28; 36; 44 ]))
      [ 0; 1 ]
  in
  (* base j is requested under tile override j mod 5 *)
  let config j = List.nth config_variants (j mod List.length config_variants) in
  let ready = ref [] in
  let push ev = ready := ev :: !ready in
  List.iteri (fun j k -> push (`Fresh_kernel (k, config j))) kernels;
  List.iter (fun k -> push (`Verify k)) kernels;
  List.iteri
    (fun j f -> push (`Fresh_gen (f, config (List.length kernels + j))))
    bases;
  let sent_once = (3 * List.length kernels) + (4 * List.length bases) in
  let repeats = ref ((sent_once + 1) / 2) and respells = ref (sent_once / 2) in
  let history = ref [] (* the last twelve requests, newest first *) in
  let emitted = ref [] in
  let emit r =
    emitted := r :: !emitted;
    history := List.filteri (fun i _ -> i < 12) (r :: !history)
  in
  let variant = ref 0 in
  let rec loop () =
    let pool = List.length !ready in
    let extra = if !history = [] then 0 else !repeats + !respells in
    if pool + extra > 0 then begin
      let pick = Prng.int rng (pool + extra) in
      (if pick < pool then begin
         let ev = List.nth !ready pick in
         ready := List.filteri (fun i _ -> i <> pick) !ready;
         match ev with
         | `Fresh_kernel (k, overrides) ->
           emit (make ~cls:Fresh ~by_name:true k);
           push (`Config (k, true, overrides))
         | `Fresh_gen (f, overrides) ->
           let p = family_program ~seed f in
           emit (make ~cls:Fresh ~by_name:false p);
           push (`Config (p, false, overrides));
           push (`Edit_stmt { f with k = f.k + 2 });
           push (`Edit_loop { f with cl = f.cl + 2 })
         | `Verify k -> emit (make ~cls:Verify ~verify:true ~by_name:true k)
         | `Config (p, by_name, overrides) ->
           emit (make ~cls:Config ~overrides ~by_name p)
         | `Edit_stmt f ->
           emit (make ~cls:Edit_stmt ~by_name:false (family_program ~seed f))
         | `Edit_loop f ->
           emit (make ~cls:Edit_loop ~by_name:false (family_program ~seed f))
       end
       else begin
         let target = Prng.pick rng !history in
         if pick - pool < !repeats then begin
           decr repeats;
           emit { target with cls = Repeat }
         end
         else begin
           decr respells;
           incr variant;
           let spelling = respell ~variant:!variant target.program.source in
           emit
             (make ~cls:Respell ~spelling ~overrides:target.overrides
                ~verify:target.verify ~by_name:false target.program)
         end
       end);
      loop ()
    end
  in
  loop ();
  Array.of_list (List.rev !emitted)

(* Sessions a run cycles through: enough distinct interleavings that a
   run's figures average over them rather than hinge on one. *)
let sessions = 32
let serve_sessions ~seed = Array.init sessions (fun index -> session ~seed ~index)

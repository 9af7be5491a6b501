(* Span recorder for the traced run. The benchmark wraps the calls into
   each layer's public entry point; nothing inside the program is
   instrumented. Spans stay in memory and are written out when the run
   ends. With recording off, [layer] and [request] are plain calls. *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;  (** shared by every span of one request *)
  name : string;
  start : float;
  stop : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

type t = {
  mutable on : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_ids : int list;
  mutable req : int;
}

let create () = { on = false; spans = []; next_id = 0; open_ids = []; req = 0 }

let layer t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
    t.open_ids <- id :: t.open_ids;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      t.open_ids <- List.tl t.open_ids;
      t.spans <- { id; parent; req = t.req; name; start; stop; words } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* A request's root span; its self time is the benchmark's own work
   between the layer calls. *)
let request t ~req f =
  t.req <- req;
  layer t "request" f

type self = { self_s : float; self_words : float }

(* Self time and self allocation of every span: its own figures minus
   those of its direct children. *)
let self_of_spans spans =
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (s.stop -. s.start);
        add child_w s.parent s.words
      end)
    spans;
  List.map
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      (s, s.stop -. s.start -. get child_s, s.words -. get child_w))
    spans

(* Per span name: total self seconds and total self words. *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self_s, self_w) ->
      let prev =
        Option.value
          ~default:{ self_s = 0.0; self_words = 0.0 }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { self_s = prev.self_s +. self_s; self_words = prev.self_words +. self_w })
    (self_of_spans spans);
  tbl

(* One JSON object per line, oldest first. *)
let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}\n"
            s.id s.parent s.req s.name s.start s.stop s.words)
        (List.rev spans))

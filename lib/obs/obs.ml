type attr = Str of string | Int of int | Float of float | Bool of bool

(* ------------------------------ state ------------------------------

   Domain-safety layout (the pool in lib/exec runs the whole mapping
   flow on several domains at once):

   - [enabled_flag] and the span id source are Atomics — the disabled
     fast path is one atomic load plus a branch, allocation-free.
   - Counters hold an [int Atomic.t]; updates are lock-free and
     commutative (incr/add/record_max), so parallel batch totals equal
     sequential ones. The name->counter registry is the only shared
     table and is guarded by [state_lock] (registration is rare).
   - Spans accumulate in per-domain buffers reached through
     [Domain.DLS]: a domain only ever touches its own open-span stack
     and finished list, so recording needs no lock at all. Buffers
     register themselves (under [state_lock]) when a domain first
     records, and the drain entry points ([spans], sinks, [reset])
     merge/clear all of them — they must only run while no batch is in
     flight. *)

let enabled_flag = Atomic.make false
let clock = ref Sys.time

type finished_span = {
  sid : int;
  sparent : int option;
  sname : string;
  scat : string;
  sstart : float;
  sdur : float;
  sargs : (string * attr) list;
}

type open_span = {
  oid : int;
  oparent : int option;
  oname : string;
  ocat : string;
  ostart : float;
  oargs : (string * attr) list;
}

let next_id = Atomic.make 0
let state_lock = Mutex.create ()

type dbuf = {
  dom : int;  (** Domain.self at creation *)
  seq : int;  (** registration order; the [dom] tiebreak after id reuse *)
  mutable stack : open_span list;
  mutable finished : finished_span list;  (* newest first *)
}

let bufs : dbuf list ref = ref [] (* under state_lock *)
let next_seq = Atomic.make 0

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          seq = Atomic.fetch_and_add next_seq 1;
          stack = [];
          finished = [];
        }
      in
      Mutex.lock state_lock;
      bufs := b :: !bufs;
      Mutex.unlock state_lock;
      b)

let my_buf () = Domain.DLS.get buf_key

(* Deterministic merge order: the initial domain (id 0) first, then by
   domain id and registration order. *)
let all_bufs () =
  Mutex.lock state_lock;
  let all = !bufs in
  Mutex.unlock state_lock;
  List.sort (fun a b -> compare (a.dom, a.seq) (b.dom, b.seq)) all

type counter = { cname : string; cvalue : int Atomic.t }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
(* under state_lock *)

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let set_clock f = clock := f
let now () = !clock ()

let reset () =
  Mutex.lock state_lock;
  List.iter
    (fun b ->
      b.stack <- [];
      b.finished <- [])
    !bufs;
  Hashtbl.iter (fun _ c -> Atomic.set c.cvalue 0) registry;
  Mutex.unlock state_lock;
  Atomic.set next_id 0

(* ------------------------------- GC -------------------------------- *)

(* Optional allocation tracking: when on, every span captures
   [Gc.quick_stat] deltas (minor/major words, major collections) of its
   own domain and appends them to the span's args — so allocation
   regressions show up per flow stage in traces and in the stats report,
   not just as wall-clock. Top-level spans additionally fold their deltas
   into the global [gc.*] counters (nested spans don't, or the totals
   would double-count). [quick_stat] reads the calling domain's local
   counters, so parallel batches stay well-defined: each span charges the
   allocation of the domain that ran it. *)
let gc_flag = Atomic.make false
let enable_gc () = Atomic.set gc_flag true
let disable_gc () = Atomic.set gc_flag false
let gc_enabled () = Atomic.get gc_flag

(* Counter handles are created below (the registry is defined after the
   span machinery); this sink is installed once at module init. *)
let gc_sink : (int -> int -> int -> unit) ref = ref (fun _ _ _ -> ())

(* ------------------------------ spans ------------------------------ *)

let close b o t1 sargs =
  (* Physical-equality pop: tolerates a thunk that enabled/disabled the
     subsystem mid-span by dropping any deeper strays. *)
  let rec drop = function
    | top :: rest when top == o -> rest
    | _ :: rest -> drop rest
    | [] -> []
  in
  b.stack <- drop b.stack;
  let dur = t1 -. o.ostart in
  b.finished <-
    {
      sid = o.oid;
      sparent = o.oparent;
      sname = o.oname;
      scat = o.ocat;
      sstart = o.ostart;
      sdur = (if dur > 0.0 then dur else 0.0);
      sargs;
    }
    :: b.finished

let span ?(cat = "flow") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = my_buf () in
    let oid = Atomic.fetch_and_add next_id 1 in
    let oparent = match b.stack with [] -> None | top :: _ -> Some top.oid in
    let track_gc = Atomic.get gc_flag in
    (* [Gc.minor_words ()] reads the domain's allocation pointer exactly;
       quick_stat's [minor_words] only refreshes at collection points (it
       reads 0 deltas for spans that don't trigger a minor GC). *)
    let g0 =
      if track_gc then Some (Gc.minor_words (), Gc.quick_stat ()) else None
    in
    let o =
      { oid; oparent; oname = name; ocat = cat; ostart = !clock (); oargs = args }
    in
    b.stack <- o :: b.stack;
    let final_args () =
      match g0 with
      | None -> o.oargs
      | Some (m0, g0) ->
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        let minor = int_of_float (m1 -. m0) in
        let major = int_of_float (g1.Gc.major_words -. g0.Gc.major_words) in
        let majcol = g1.Gc.major_collections - g0.Gc.major_collections in
        if oparent = None then !gc_sink minor major majcol;
        o.oargs
        @ [
            ("gc.minor_words", Int minor);
            ("gc.major_words", Int major);
            ("gc.major_collections", Int majcol);
          ]
    in
    match f () with
    | v ->
      let sargs = final_args () in
      close b o (!clock ()) sargs;
      v
    | exception e ->
      let sargs = final_args () in
      close b o (!clock ()) sargs;
      raise e
  end

let instant ?(cat = "flow") ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let b = my_buf () in
    let oid = Atomic.fetch_and_add next_id 1 in
    let sparent = match b.stack with [] -> None | top :: _ -> Some top.oid in
    let now = !clock () in
    b.finished <-
      {
        sid = oid;
        sparent;
        sname = name;
        scat = cat;
        sstart = now;
        sdur = 0.0;
        sargs = args;
      }
      :: b.finished
  end

let spans () =
  List.concat_map (fun b -> List.rev b.finished) (all_bufs ())

(* ----------------------------- counters ---------------------------- *)

let counter cname =
  Mutex.lock state_lock;
  let c =
    match Hashtbl.find_opt registry cname with
    | Some c -> c
    | None ->
      let c = { cname; cvalue = Atomic.make 0 } in
      Hashtbl.replace registry cname c;
      c
  in
  Mutex.unlock state_lock;
  c

let incr c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cvalue 1)

let add c n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cvalue n)

let set c n = if Atomic.get enabled_flag then Atomic.set c.cvalue n

let record_max c n =
  if Atomic.get enabled_flag then begin
    let rec raise_to () =
      let cur = Atomic.get c.cvalue in
      if n > cur && not (Atomic.compare_and_set c.cvalue cur n) then raise_to ()
    in
    raise_to ()
  end

let value c = Atomic.get c.cvalue

(* Global allocation tallies, fed by top-level spans when GC tracking is
   on (see gc_sink above). *)
let c_gc_minor = counter "gc.minor_words"
let c_gc_major = counter "gc.major_words"
let c_gc_majcol = counter "gc.major_collections"

let () =
  gc_sink :=
    fun minor major majcol ->
      add c_gc_minor minor;
      add c_gc_major major;
      add c_gc_majcol majcol

let counters () =
  Mutex.lock state_lock;
  let rows =
    Hashtbl.fold (fun _ c acc -> (c.cname, Atomic.get c.cvalue) :: acc) registry []
  in
  Mutex.unlock state_lock;
  List.sort compare rows

let find_counter name =
  Mutex.lock state_lock;
  let c = Hashtbl.find_opt registry name in
  Mutex.unlock state_lock;
  Option.map (fun c -> Atomic.get c.cvalue) c

(* --------------------------- Chrome trace --------------------------- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_json_attr buf = function
  | Str s -> add_json_string buf s
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* %.17g round-trips but is noisy; %g may print nan/inf, which JSON
       forbids — clamp those to 0. *)
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "0"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let add_json_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_json_attr buf v)
    args;
  Buffer.add_char buf '}'

(* The per-domain buffers become Chrome-trace threads: spans carry the
   tid of the domain that recorded them, so a parallel batch renders as
   one lane per domain in the viewer. *)
let chrome_trace () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"fpfa_map\"}}";
  let tagged =
    List.concat_map
      (fun b -> List.rev_map (fun s -> (b.dom, s)) b.finished)
      (all_bufs ())
  in
  let ordered =
    List.stable_sort
      (fun (_, a) (_, b) -> compare (a.sstart, a.sid) (b.sstart, b.sid))
      tagged
  in
  let t0 = match ordered with [] -> 0.0 | (_, s) :: _ -> s.sstart in
  let us t = (t -. t0) *. 1e6 in
  let t_end =
    List.fold_left
      (fun acc (_, s) -> Float.max acc (s.sstart +. s.sdur))
      t0 tagged
  in
  List.iter
    (fun (tid, s) ->
      Buffer.add_string buf ",\n{\"name\":";
      add_json_string buf s.sname;
      Buffer.add_string buf ",\"cat\":";
      add_json_string buf s.scat;
      Buffer.add_string buf
        (Printf.sprintf
           ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d"
           (us s.sstart) (s.sdur *. 1e6) tid);
      if s.sargs <> [] then begin
        Buffer.add_string buf ",\"args\":";
        add_json_args buf s.sargs
      end;
      Buffer.add_char buf '}')
    ordered;
  List.iter
    (fun (name, v) ->
      if v <> 0 then begin
        Buffer.add_string buf ",\n{\"name\":";
        add_json_string buf name;
        Buffer.add_string buf
          (Printf.sprintf
             ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,\"tid\":0,\"args\":{\"value\":%d}}"
             (us t_end) v)
      end)
    (counters ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))

(* ---------------------------- stats report -------------------------- *)

let stats_report () =
  let buf = Buffer.create 1024 in
  let nonzero = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  Buffer.add_string buf "counters:\n";
  if nonzero = [] then Buffer.add_string buf "  (none)\n"
  else
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-36s %12d\n" name v))
      nonzero;
  let groups : (string * string, int * float * int * int) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun s ->
      let key = (s.scat, s.sname) in
      let arg k =
        List.fold_left
          (fun acc (k', v) ->
            match v with Int n when String.equal k k' -> acc + n | _ -> acc)
          0 s.sargs
      in
      let n, t, mi, ma =
        match Hashtbl.find_opt groups key with
        | Some x -> x
        | None -> (0, 0.0, 0, 0)
      in
      Hashtbl.replace groups key
        ( n + 1,
          t +. s.sdur,
          mi + arg "gc.minor_words",
          ma + arg "gc.major_words" ))
    (spans ());
  let rows =
    Hashtbl.fold
      (fun (cat, name) (n, t, mi, ma) acc -> (cat, name, n, t, mi, ma) :: acc)
      groups []
    |> List.sort (fun (c1, n1, _, _, _, _) (c2, n2, _, _, _, _) ->
           compare (c1, n1) (c2, n2))
  in
  Buffer.add_string buf "spans (cat/name, count, total):\n";
  if rows = [] then Buffer.add_string buf "  (none)\n"
  else
    List.iter
      (fun (cat, name, n, t, mi, ma) ->
        let gc =
          if mi = 0 && ma = 0 then ""
          else Printf.sprintf "  gc minor=%d major=%d" mi ma
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-36s %8d %10.3f ms%s\n" (cat ^ "/" ^ name) n
             (t *. 1e3) gc))
      rows;
  Buffer.contents buf

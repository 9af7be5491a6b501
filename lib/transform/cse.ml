module G = Cdfg.Graph
module Op = Cdfg.Op

(* A node's value number: its kind and up to three inputs, read straight
   from the arena ([-1] pads the ports its kind does not have, so a key's
   kind fixes how many of [a], [b], [c] are meaningful). Commutative
   operands are ordered, smaller id first. *)
type key = { kind : G.kind; a : int; b : int; c : int }

let equal_kind (x : G.kind) (y : G.kind) =
  match (x, y) with
  | G.Const u, G.Const v -> u = v
  | G.Binop u, G.Binop v -> u = v
  | G.Unop u, G.Unop v -> u = v
  | G.Mux, G.Mux -> true
  | G.Fe u, G.Fe v
  | G.Ss_in u, G.Ss_in v
  | G.Ss_out u, G.Ss_out v
  | G.St u, G.St v
  | G.Del u, G.Del v ->
    String.equal u v
  | ( ( G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Fe _ | G.Ss_in _
      | G.Ss_out _ | G.St _ | G.Del _ ),
      _ ) ->
    false

module Key = struct
  type t = key

  let equal x y =
    x.a = y.a && x.b = y.b && x.c = y.c && equal_kind x.kind y.kind

  let hash_kind : G.kind -> int = function
    | G.Const v -> v
    | G.Binop op -> 1 + Hashtbl.hash op
    | G.Unop op -> 101 + Hashtbl.hash op
    | G.Mux -> 211
    | G.Fe r | G.Ss_in r | G.Ss_out r | G.St r | G.Del r -> Hashtbl.hash r

  let hash k =
    let h = (hash_kind k.kind * 0x2545F491) + k.a in
    let h = (h * 0x2545F491) + k.b in
    let h = (h * 0x2545F491) + k.c in
    h lxor (h lsr 29)
end

module Tbl = Hashtbl.Make (Key)

(* Stores, deletes and statespace endpoints are never merged. *)
let keyed = function
  | G.Const _ | G.Unop _ | G.Mux | G.Fe _ | G.Binop _ -> true
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ -> false

(* The key of a live node whose kind is [keyed]. *)
let key g id =
  let kind = G.kind g id in
  match kind with
  | G.Const _ -> { kind; a = -1; b = -1; c = -1 }
  | G.Unop _ -> { kind; a = G.input g id 0; b = -1; c = -1 }
  | G.Fe _ -> { kind; a = G.input g id 0; b = G.input g id 1; c = -1 }
  | G.Mux ->
    { kind; a = G.input g id 0; b = G.input g id 1; c = G.input g id 2 }
  | G.Binop op ->
    let a = G.input g id 0 and b = G.input g id 1 in
    if Op.commutative op && b < a then { kind; a = b; b = a; c = -1 }
    else { kind; a; b; c = -1 }
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
    invalid_arg "Cse.key: unkeyed node kind"

let key_of g id = if keyed (G.kind g id) then Some (key g id) else None

let run g =
  let changed = ref false in
  let seen : int Tbl.t = Tbl.create 64 in
  (* Topological order so that representatives are installed before their
     consumers are keyed. *)
  List.iter
    (fun id ->
      if G.mem g id && keyed (G.kind g id) then begin
        let k = key g id in
        match Tbl.find_opt seen k with
        | Some representative when representative <> id ->
          G.replace_uses g id ~by:representative;
          changed := true
        | Some _ -> ()
        | None -> Tbl.replace seen k id
      end)
    (G.topo_order g);
  !changed

let pass = { Pass.name = "cse"; run; settled = false }

(* Worklist variant: the value-number table lives for the whole engine run.
   Entries go stale when a representative is removed or its inputs change;
   staleness is detected lazily at lookup time (the representative must
   still exist and still hash to the key) and the entry is then usurped by
   the node in hand.

   In a full run the table fills in as the topological seed visits every
   node. A seeded run visits only the dirty region, so [~prime] instead
   pre-populates the table with every live node (earliest in topological
   order wins, matching the representative a full run would elect) —
   without it, a freshly patched-in node could never merge with an
   unvisited old equal and the seeded result would diverge from a
   from-scratch compile. *)
let prepare ~prime g =
  let seen : int Tbl.t = Tbl.create 64 in
  if prime then
    List.iter
      (fun id ->
        if G.mem g id && keyed (G.kind g id) then begin
          let k = key g id in
          if not (Tbl.mem seen k) then Tbl.replace seen k id
        end)
      (G.topo_order g);
  fun id ->
    keyed (G.kind g id)
    &&
    let k = key g id in
    match Tbl.find seen k with
    | rep when rep = id -> false
    | rep when G.mem g rep && Key.equal (key g rep) k ->
      (* [rep] and [id] have identical kind and inputs, so neither
         can be a descendant of the other: the merge is acyclic. *)
      G.replace_uses g id ~by:rep;
      true
    | _ | (exception Not_found) ->
      Tbl.replace seen k id;
      false

let rule =
  {
    Pass.rname = "cse";
    settled = false;
    prepare = prepare ~prime:false;
    prepare_seeded = Some (prepare ~prime:true);
  }

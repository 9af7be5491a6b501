module G = Cdfg.Graph
module D = Fpfa_diag.Diag

exception Unmappable of string

let unmappablef fmt = Format.kasprintf (fun msg -> raise (Unmappable msg)) fmt

(* Reads the offset port in place: the allocator asks once per access
   and per token-chain step, so this must not build the input list. *)
let const_offset g node_id =
  let offset_input =
    match G.kind g node_id with
    | G.Fe _ | G.Del _ | G.St _ -> G.input g node_id 1
    | _ -> unmappablef "node %d is not a statespace access" node_id
  in
  match G.kind g offset_input with
  | G.Const c ->
    if c < 0 then unmappablef "negative statespace offset %d" c;
    c
  | _ ->
    unmappablef
      "node %d has a dynamic statespace offset (unroll and simplify first)"
      node_id

(* Diagnostic-producing legality check. [check] keeps its historical
   raise-on-first behaviour as a thin wrapper, so the clustering phase and
   the `fpfa_map check` validators share one implementation. *)
let check_diags g =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let offset_diag (n : G.node) =
    match (n.G.kind, Array.to_list n.G.inputs) with
    | G.Fe _, [ _; offset ] | G.Del _, [ _; offset ]
    | G.St _, [ _; offset; _ ] -> (
      match G.kind g offset with
      | G.Const c when c >= 0 -> ()
      | G.Const c ->
        add
          (D.error ~node:n.G.id "ss.offset-negative"
             "negative statespace offset %d" c)
      | _ ->
        add
          (D.error ~node:n.G.id "ss.offset-dynamic"
             "node %d has a dynamic statespace offset (unroll and simplify \
              first)"
             n.G.id))
    | _ -> ()
  in
  (* The set of value ids some store writes back: one graph scan instead of
     one full-graph fold per named output. *)
  let stored =
    G.fold g ~init:G.Id_set.empty ~f:(fun acc n ->
        offset_diag n;
        match n.G.kind with
        | G.St _ when Array.length n.G.inputs = 3 ->
          G.Id_set.add n.G.inputs.(2) acc
        | _ -> acc)
  in
  List.iter
    (fun (name, id) ->
      (* A named output must reach memory through some store, otherwise the
         tile has nowhere observable to leave it. *)
      if not (G.Id_set.mem id stored) then
        add
          (D.error ~node:id "ss.output-not-stored"
             "named output %s is not stored to any region" name))
    (G.outputs g);
  List.rev !diags

let check g =
  match check_diags g with
  | [] -> ()
  | d :: _ -> raise (Unmappable d.D.message)

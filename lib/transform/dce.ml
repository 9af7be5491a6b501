module G = Cdfg.Graph

let is_root g id =
  match G.kind g id with
  | G.Ss_out _ -> true
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Fe _ | G.St _
  | G.Del _ ->
    ignore g;
    false

let run g =
  let changed = ref false in
  (* Mark: reachable from roots over data edges. Order-only edges do not
     keep nodes alive. *)
  let rec sweep () =
    let live = Hashtbl.create (G.node_count g) in
    let rec mark id =
      if not (Hashtbl.mem live id) then begin
        Hashtbl.replace live id ();
        List.iter mark (G.inputs g id)
      end
    in
    List.iter (fun id -> if is_root g id then mark id) (G.node_ids g);
    List.iter (fun (_, id) -> mark id) (G.outputs g);
    let dead =
      List.filter (fun id -> not (Hashtbl.mem live id)) (G.node_ids g)
    in
    if dead <> [] then begin
      (* Remove in reverse topological order so uses disappear first. *)
      let order = G.topo_order g in
      let dead_set = List.fold_left (fun s id -> G.Id_set.add id s) G.Id_set.empty dead in
      List.iter
        (fun id -> if G.Id_set.mem id dead_set then G.remove g id)
        (List.rev order);
      changed := true;
      sweep ()
    end
  in
  sweep ();
  !changed

let pass = { Pass.name = "dce"; run; settled = false }

(* Worklist variant: a non-root node with zero uses is removed; the removal
   marks its producers use-dirty, so the engine re-examines them and the
   sweep cascades upwards. Iterated zero-use removal on a DAG deletes
   exactly the nodes the mark-and-sweep above would (data-unreachable from
   [Ss_out] roots and named outputs), one O(degree) step at a time. *)
let removable g id = (not (is_root g id)) && G.use_count g id = 0

let rule =
  Pass.local "dce" (fun g id ->
      if removable g id then begin
        G.remove g id;
        true
      end
      else false)

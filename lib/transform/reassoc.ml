module G = Cdfg.Graph
module Op = Cdfg.Op

let associative = function
  | Op.Add | Op.Mul | Op.Band | Op.Bor | Op.Bxor -> true
  | Op.Sub | Op.Div | Op.Mod | Op.Shl | Op.Shr | Op.Lt | Op.Le | Op.Gt
  | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor ->
    false

(* Collects the leaves of the maximal single-use chain of [op] rooted at
   [id], left to right, prepended to [acc]. [data_uses] counts data edges
   only (named outputs do not make a node a chain boundary: its value is
   unchanged by rebalancing the root above it). *)
let rec chain_leaves g op ~data_uses id ~is_root acc =
  match G.kind g id with
  | G.Binop op' when op' = op && (is_root || data_uses id = 1) ->
    let b_leaves =
      chain_leaves g op ~data_uses (G.input g id 1) ~is_root:false acc
    in
    chain_leaves g op ~data_uses (G.input g id 0) ~is_root:false b_leaves
  | _ -> id :: acc

let rec build_balanced g op leaves =
  match leaves with
  | [] -> invalid_arg "build_balanced: no leaves"
  | [ leaf ] -> (leaf, 0)
  | _ ->
    let mid = (List.length leaves + 1) / 2 in
    let left, right = Fpfa_util.Listx.split_at mid leaves in
    let left_id, dl = build_balanced g op left in
    let right_id, dr = build_balanced g op right in
    (G.add g (G.Binop op) [ left_id; right_id ], 1 + max dl dr)

(* Is the tree rooted at [id] already the shape [build_balanced] produces
   for an [n]-leaf chain, up to commutative operand orientation? Checking
   shape rather than depth makes the rewrite canonicalising: every chain
   has one normal form regardless of the shape it starts from. Depth-only
   firing is history-sensitive — an already-balanced subtree extended by
   one more operand can sit at the same depth a from-scratch rebalance
   would reach with a different shape, which would let an incrementally
   patched graph settle into a different (equally shallow) tree than the
   cold compile.

   Orientation must be judged modulo commutativity because that is CSE's
   equivalence: CSE keys commutative binops on the sorted input multiset,
   so a rebuild that only mirrors operands produces nodes CSE merges
   straight back into their older mirror twins — restoring the exact
   pre-rebuild graph and diverging the fixpoint (reassoc fires, CSE
   undoes, forever). A guard at least as coarse as CSE's equivalence
   cannot fire on anything CSE can restore. *)
let rec canonical_shape g op ~data_uses id ~is_root n =
  let continues =
    match G.kind g id with
    | G.Binop op' -> op' = op && (is_root || data_uses id = 1)
    | _ -> false
  in
  if n = 1 then not continues
  else if not continues then false
  else begin
    let a = G.input g id 0 and b = G.input g id 1 in
    let mid = (n + 1) / 2 in
    let split x y =
      canonical_shape g op ~data_uses x ~is_root:false mid
      && canonical_shape g op ~data_uses y ~is_root:false (n - mid)
    in
    split a b || (Op.commutative op && split b a)
  end

type outcome =
  | Rebalanced
  | Canonical  (** a chain root of more than two leaves, already canonical *)
  | Skipped  (** not a chain root, or too short to rebalance *)

(* Rebalances the chain rooted at [id] into its canonical balanced shape.
   [data_uses id] must count data consumers; [consumer_of id] must
   return the single data consumer when there is exactly one. *)
let rebalance_root g ~data_uses ~consumer_of id =
  match G.kind g id with
  (* Dead roots (no data uses, no named output) are DCE-bound: rebuilding
     them only manufactures fresh dead trees for the next collection. The
     depth-strict guard used to bound that churn implicitly; the
     canonical-shape guard below does not, so exclude them outright. *)
  | G.Binop _ when G.use_count g id = 0 -> Skipped
  | G.Binop op when associative op ->
    (* Only rebalance chain roots: nodes whose consumer is not the same
       single-use chain. *)
    let is_chain_interior =
      match consumer_of id with
      | Some c when G.mem g c -> (
        data_uses id = 1
        &&
        match G.kind g c with
        | G.Binop op' -> op' = op
        | _ -> false)
      | _ -> false
    in
    if is_chain_interior then Skipped
    else begin
      let leaves = chain_leaves g op ~data_uses id ~is_root:true [] in
      let n = List.length leaves in
      if n <= 2 then Skipped
      else if canonical_shape g op ~data_uses id ~is_root:true n then Canonical
      else begin
        let root, _ = build_balanced g op leaves in
        G.replace_uses g id ~by:root;
        Rebalanced
      end
    end
  | _ -> Skipped

let run g =
  let changed = ref false in
  let use_counts = Hashtbl.create 64 in
  let consumers = G.consumers g in
  Hashtbl.iter
    (fun producer uses -> Hashtbl.replace use_counts producer (List.length uses))
    consumers;
  let data_uses id =
    match Hashtbl.find_opt use_counts id with Some c -> c | None -> 0
  in
  let consumer_of id =
    match Hashtbl.find_opt consumers id with
    | Some [ (c, _) ] -> Some c
    | Some _ | None -> None
  in
  List.iter
    (fun id ->
      if G.mem g id && rebalance_root g ~data_uses ~consumer_of id = Rebalanced
      then changed := true)
    (G.node_ids g);
  !changed

(* Settled, like [rule]: the fixpoint engine runs it only in a round where
   no earlier pass fired, so chain boundaries are read off a graph the
   other passes (DCE in particular) have finished with. Run eagerly it
   settles on shapes that depend on transient use counts: on random DAG
   seed 4750 it left [56*(59*(29*55))] where the worklist engine builds
   [(56*59)*(29*55)]; both are canonical shapes of the same chain. *)
let pass = { Pass.name = "reassociate"; run; settled = true }

(* Worklist variant: use counts come from the live index instead of a
   snapshot, so re-examining a node after its chain changed is O(chain).
   The rule self-localizes: a dirty node deep inside a single-use chain
   (e.g. one whose second consumer just died, fusing two chains) walks up
   to the chain root, because that is where the rebalance fires — the
   engine's dirty journal only wakes immediate neighbours.

   The rule is [settled]: chain boundaries are use-count-driven, and use
   counts are only meaningful once DCE has collected every dead tree. If
   rebalancing interleaves with collection at node granularity it keeps
   rebuilding chains whose boundaries were artifacts of dying nodes,
   handing CSE/DCE fresh duplicates forever (observed on fir-16).

   Every settled visit of every chain member walks to the same root and
   re-checks the whole chain's shape, which makes a long chain cost
   O(chain) per member. The rule therefore remembers the last root it
   found canonical together with the graph's generation stamp. Every
   mutation bumps the stamp, so an equal stamp proves the graph — and
   with it every use count, chain boundary and shape the check reads —
   is exactly as it was, and the remembered "no rewrite" is exactly the
   answer a re-check would compute. Only long-chain roots are
   remembered: the members of one chain are visited among short
   two-leaf chains (a FIR's multiplies between its adds), whose cheap
   checks must not evict the expensive one. The memo lives in the
   closure [prepare] returns, so it is per run and per graph. *)
let rule =
  Pass.settled "reassociate" (fun g ->
      let data_uses id = G.data_use_count g id in
      let consumer_of id =
        if G.data_use_count g id <> 1 then None
        else begin
          let c = ref None in
          G.iter_consumers_unordered g id (fun cid _ -> c := Some cid);
          !c
        end
      in
      (* (root, generation) of the last root found canonical *)
      let memo_root = ref (-1) and memo_gen = ref (-1) in
      fun id ->
      let rec root_of id fuel =
        if fuel <= 0 then id
        else
          match G.kind g id with
          | G.Binop op when associative op -> (
            match consumer_of id with
            | Some c when data_uses id = 1 && G.mem g c -> (
              match G.kind g c with
              | G.Binop op' when op' = op -> root_of c (fuel - 1)
              | _ -> id)
            | _ -> id)
          | _ -> id
      in
      let root = root_of id (G.node_count g) in
      if root = !memo_root && G.generation g = !memo_gen then false
      else
        match rebalance_root g ~data_uses ~consumer_of root with
        | Rebalanced -> true
        | Canonical ->
          memo_root := root;
          memo_gen := G.generation g;
          false
        | Skipped -> false)

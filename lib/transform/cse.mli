(** Common subexpression elimination.

    Merges structurally identical pure nodes ([Const], [Binop], [Unop],
    [Mux]) and identical fetches ([Fe] with the same token and offset —
    sound because fetches of one token commute and see the same snapshot).
    Commutative operators are canonicalised by sorting their operands.
    Stores, deletes and statespace endpoints are never merged. *)

val pass : Pass.t

val rule : Pass.rule
(** Worklist variant: keeps a value-number table for the whole engine run;
    stale entries (removed or re-keyed representatives) are detected and
    replaced lazily at lookup time. *)

(** {2 Value-number keys} *)

type key
(** A node's kind and inputs (commutative operands ordered), the value
    number both {!pass} and {!rule} merge on. Two keys are equal exactly
    when the nodes have the same kind and the same inputs after ordering
    commutative operands — the structural [(kind, sorted inputs)]
    equality. *)

module Key : Hashtbl.HashedType with type t = key
(** Monomorphic equality and hash; equal keys hash equally. *)

val key_of : Cdfg.Graph.t -> Cdfg.Graph.id -> key option
(** The key of a live node, [None] for kinds CSE never merges (stores,
    deletes, statespace endpoints). *)

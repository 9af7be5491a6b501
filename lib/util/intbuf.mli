(** Growable int buffer: a stack of ints in one array that doubles when
    full. The fields are exposed so hot loops can read and truncate it in
    place. *)

type t = { mutable items : int array; mutable len : int }
(** [items.(0)] to [items.(len - 1)] are the pushed values. *)

val create : unit -> t
(** An empty buffer with room for 16 values. *)

val push : t -> int -> unit
(** Appends a value, doubling [items] when it is full. *)

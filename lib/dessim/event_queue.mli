(** Priority queue of timestamped items, ordered by [(time, sequence)].

    Items inserted at equal times are dequeued in insertion order, which
    makes simulation runs deterministic independent of heap internals. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the earliest item. *)

(** {2 Non-allocating accessors}

    The engine's inner loop runs once per simulation event; the
    option/tuple wrappers above would be its only allocations. *)

val top_time : 'a t -> float
(** Timestamp of the earliest item.  Undefined on an empty queue
    (reads a stale slot); guard with {!is_empty}. *)

val pop_item : 'a t -> 'a
(** Removes and returns the earliest item without its timestamp (read
    {!top_time} first).  Undefined on an empty queue. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest item, without removing it. *)

val peek : 'a t -> (float * 'a) option
(** The earliest item, without removing it. *)

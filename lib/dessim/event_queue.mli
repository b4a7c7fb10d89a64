(** Priority queue of timestamped items, ordered by [(time, sequence)].

    Items inserted at equal times are dequeued in insertion order, which
    makes simulation runs deterministic independent of heap internals. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** [push t ~time x = push_reserved t ~time ~seq:(reserve t) x].
    @raise Invalid_argument if [time] is NaN. *)

(** {2 Reserved sequence numbers}

    A caller can take an item's sequence number now and push the item
    later: it is then ordered exactly as if it had been pushed when its
    number was reserved.  A router's processing queue uses this to keep
    only its head in the engine's heap. *)

val reserve : 'a t -> int
(** Takes the next sequence number, the one the next {!push} would
    have used. *)

val push_reserved : 'a t -> time:float -> seq:int -> 'a -> unit
(** Inserts an item under a number from {!reserve}, which must be
    pushed at most once.
    @raise Invalid_argument if [time] is NaN or [seq] was never
    reserved. *)

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

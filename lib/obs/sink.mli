(** Pluggable destinations for trace events. *)

type t

val null : t
(** Discards everything.  The bus compares against this value physically
    to skip event construction entirely, so reuse [null] rather than
    building an equivalent sink. *)

val fn : (Event.t -> unit) -> t
(** Wrap a callback. *)

val memory : unit -> t * (unit -> Event.t list)
(** Unbounded in-memory sink; the closure returns events in emit order. *)

val ring :
  ?counters:Counters.t -> capacity:int -> unit -> t * (unit -> Event.t list)
(** Bounded ring buffer keeping the last [capacity] events, in emit
    order.  Each overwrite of a not-yet-read slot bumps the
    [trace_dropped] counter in [counters] (if given), so bounded-trace
    runs can detect loss.  Raises [Invalid_argument] if
    [capacity <= 0]. *)

val jsonl_file : string -> t
(** Open [path] and write one JSON object per line; [close] closes
    it. *)

val binary_file : string -> t
(** Open [path] (binary mode) and write the binary trace format
    ({!Binary}): stream header up front, one length-prefixed frame per
    event, buffered through a reused buffer (no per-event allocation).
    [close] flushes and closes it. *)

val tee : t -> t -> t
(** Duplicate events to both sinks. *)

val emit : t -> Event.t -> unit
val close : t -> unit

(** Discrete-event simulation engine.

    Events are closures executed at their scheduled virtual time.  The
    engine guarantees: events fire in nondecreasing time order; events
    scheduled at equal times fire in scheduling order (for
    {!schedule_reserved}, the order their numbers were reserved in);
    the clock never moves backwards.  Scheduling into the past
    raises. *)

type t

type handle
(** A scheduled event.  Cancelling a handle is O(1); the event stays in
    the queue but is skipped when dequeued. *)

val create : ?now:float -> unit -> t
(** A fresh engine; the clock starts at [now] (default [0.]). *)

val now : t -> float

val schedule : ?tag:string -> t -> at:float -> (unit -> unit) -> handle
(** [tag] labels the event for the step profiler (see
    {!set_step_profiler}); it has no effect on execution.
    @raise Invalid_argument if [at < now t]. *)

val schedule_after : ?tag:string -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f = schedule t ~at:(now t +. delay) f].
    @raise Invalid_argument if [delay < 0.]. *)

val reserve : t -> int
(** Reserves the sequence number the next scheduled event would take;
    pass it to {!schedule_reserved}. *)

val schedule_reserved :
  ?tag:string -> t -> at:float -> seq:int -> (unit -> unit) -> unit
(** Schedules under a number from {!reserve}: the event fires exactly
    where it would have fired had it been scheduled at [at] when [seq]
    was reserved, provided it is scheduled before any event with a
    larger [(at, seq)] key fires.  Each reserved number is scheduled at
    most once.  There is no handle: such an event cannot be
    cancelled.  A router's processing queue ([Netcore.Node_proc])
    reserves a number per accepted message and schedules only its
    head.
    @raise Invalid_argument if [at < now t] or [seq] was never
    reserved. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val cancelled : handle -> bool

val step : t -> bool
(** Executes the next non-cancelled event.  Returns [false] when the
    queue holds no live events. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Runs events until the queue drains, the next event would fire after
    [until], or [max_events] live events have executed.  With [until],
    the clock is left at [min until (last fired time)] — it does not
    jump to [until]. *)

val pending : t -> int
(** Number of heap entries, including cancelled ones not yet skipped.
    Messages queued behind a router's processing-queue head are not
    counted: only the head holds an entry ([Netcore.Node_proc]). *)

val next_live_time : t -> float option
(** Timestamp of the earliest non-cancelled queued event, or [None] when
    no live event remains.  Discards cancelled events found at the head
    of the queue (observationally a no-op). *)

val set_clock_monitor : t -> (old_time:float -> new_time:float -> unit) -> unit
(** Installs a hook called immediately before each clock advance, with
    the clock's current value and the fired event's timestamp.  Used by
    runtime invariant checkers to verify timestamp monotonicity from the
    outside; the engine itself already enforces it structurally. *)

val set_step_profiler :
  t -> (tag:string option -> run:(unit -> unit) -> unit) -> unit
(** Installs a wrapper around event execution: instead of calling the
    event action directly, [step] calls the profiler with the event's
    schedule-site [tag] and the action as [run].  The profiler MUST
    call [run ()] exactly once.  Keeps the engine free of
    wall-clock dependencies — the caller supplies the timing. *)

val events_executed : t -> int
(** Total live events executed since creation. *)

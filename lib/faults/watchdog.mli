(** Wall-clock budgets for long-running simulations.

    Complements the engine's event/vtime budgets with real-time
    limits.  Cooperative, not preemptive: the simulation polls
    {!expired} at safepoints (between engine chunks, at the churn
    driver's epoch boundaries), so expiry always lands at a consistent
    state.  The clock is injectable for deterministic tests. *)

type t

val create : ?clock:(unit -> float) -> ?max_wall_s:float -> unit -> t
(** Arm a watchdog now.  [clock] defaults to [Unix.gettimeofday];
    omitting [max_wall_s] yields a watchdog that never expires. *)

val unlimited : t
(** A watchdog that never expires (and whose clock never advances);
    useful as a default argument. *)

val expired : t -> bool
(** [true] once elapsed wall time has reached the budget.  Always
    [false] without a [max_wall_s]. *)

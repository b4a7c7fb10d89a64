(** Forwarding-loop tracking over a stream of FIB changes.

    The per-destination forwarding state is a functional graph (each
    node has at most one next hop), so its cycles are node-disjoint and
    each node belongs to at most one loop.  A FIB change at node [v]
    can only kill the loop [v] is a member of (its outgoing edge
    changed) and can only create a loop through [v] (any new cycle must
    use [v]'s new edge) — so feeding the chronological changes to a
    tracker that chases next-hop chains from changed nodes tracks every
    loop exactly.

    There is one tracker, {!t}.  {!scan} replays a recorded
    {!Netcore.Fib_history} through it after the run ([Experiment.run]);
    [Mesh_sim] and the churn driver feed it with {!observe} as the
    simulation makes each change, so long runs track loops without
    keeping a history.

    This implements the paper's stated next step ("measure the
    statistics of individual loops such as the loop size and
    duration"), which the published study only measured in aggregate. *)

type loop = {
  members : int list;
      (** the cycle in forwarding order, starting at its smallest
          member *)
  birth : float;
  death : float option;  (** [None] if alive at the end of the scan *)
  trigger : int;
      (** the node whose next-hop change created the cycle (a cycle can
          only form through the changed node's new edge) *)
}

val size : loop -> int

val duration : loop -> until:float -> float
(** Lifetime, using [until] for loops still alive. *)

val pp_loop : Format.formatter -> loop -> unit

type report = {
  loops : loop list;
      (** by birth time, then members; among equal (birth, members),
          finished loops in the order they died, then the survivor *)
  first_loop_birth : float option;
  last_loop_death : float option;
      (** [None] when no loop formed or one survived the scan *)
  max_concurrent : int;  (** most loops alive at once *)
}

(** {2 The tracker}

    Its state is plain data (no closures): churn checkpoints Marshal
    it directly, which is why the observability bus is an argument to
    {!observe} rather than part of the state.

    Two modes:
    - [record = false] (default): bounded memory; only aggregate
      {!totals} are maintained, O(nodes) state regardless of run
      length.
    - [record = true]: additionally retains every finished loop so
      {!report} can list them. *)

type t

val create :
  ?record:bool -> origin:int -> initial:int option array -> unit -> t
(** [create ~origin ~initial ()] starts tracking from the forwarding
    state [initial] (copied; [initial.(v)] is [v]'s next hop toward
    the destination).  The starting state must be loop-free, e.g. a
    converged warm-up state.
    @raise Invalid_argument if it contains a loop or [origin] is out
    of range. *)

val observe :
  ?obs:Obs.Bus.t ->
  ?prefix:int ->
  t ->
  time:float ->
  node:int ->
  next_hop:int option ->
  unit
(** Apply one FIB change.  Changes must arrive in nondecreasing time
    order (as the simulation emits them).  [obs] (default
    {!Obs.Bus.off}) receives [Loop_detected] / [Loop_resolved]
    events, timestamped [time] and tagged with [prefix] when given
    (mesh runs). *)

val live_loops : t -> int
(** Number of loops alive right now. *)

type totals = {
  loops_started : int;
  loops_resolved : int;
  live_now : int;
  max_concurrent : int;
  max_size : int;
  mean_size : float;
  total_loop_seconds : float;
      (** finished loops plus survivors charged up to [until] *)
  first_loop_birth : float option;
  last_loop_death : float option;
      (** [None] when no loop resolved yet or one is still alive *)
}

val totals : t -> until:float -> totals
(** Aggregates; available in both modes. *)

val report : t -> report
(** Every loop seen so far; survivors carry [death = None].
    @raise Invalid_argument unless created with [~record:true]. *)

val scan :
  ?obs:Obs.Bus.t ->
  ?prefix:int ->
  fib:Netcore.Fib_history.t ->
  origin:int ->
  from:float ->
  unit ->
  report
(** [scan ~fib ~origin ~from ()] is the {!report} of a recording
    tracker started from the forwarding state just before [from] and
    fed every change at or after [from].  [obs] and [prefix] are
    handed to {!observe}.
    @raise Invalid_argument if the starting state already contains a
    loop. *)

(** {2 Aggregates} *)

type aggregate = {
  count : int;
  mean_size : float;
  max_size : int;
  mean_duration : float;
  max_duration : float;
  total_loop_seconds : float;
      (** sum of loop lifetimes — a load-like measure of looping *)
}

val aggregate : report -> until:float -> aggregate
(** Zeroed fields when no loops formed. *)

val pp_aggregate : Format.formatter -> aggregate -> unit

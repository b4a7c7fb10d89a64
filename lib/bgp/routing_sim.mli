(** End-to-end routing simulation of one failure event.

    The run has two phases, mirroring the paper's methodology:

    + {b warm-up}: the origin AS announces its prefix at time 0 and the
      network converges (the event queue drains);
    + {b event}: after a quiet gap, the event is injected —
      [Tdown] removes the origin's route (the destination AS becomes
      unreachable), [Tlong] fails one link, forcing the network onto
      less-preferred paths; the inverse events [Tup] and [Trecover]
      warm up {e without} the route / link and then add it — and the
      simulation runs to quiescence.

    The run is a script over {!Network}.  The outcome carries the
    {!Netcore.Trace.t} (the FIB history) that the forwarding replay and
    loop analysis consume, and the paper's convergence measurement:
    convergence starts at the failure and ends when the last BGP update
    message is sent.  The run counts those sends through the network's
    [on_send] hook as they happen; the messages themselves are recorded
    only as [obs] events. *)

type event =
  | Tdown  (** the destination AS withdraws its prefix *)
  | Tlong of { a : int; b : int }
      (** link [(a,b)] fails; the destination stays reachable over
          less-preferred paths *)
  | Tup
      (** the inverse of [Tdown] (Labovitz et al.'s classification,
          beyond the paper): the network warms up with no route at all
          and the origin announces its prefix at the event time *)
  | Trecover of { a : int; b : int }
      (** the inverse of [Tlong]: the network warms up with link
          [(a,b)] down, and the link (and both BGP sessions over it)
          comes back at the event time *)
  | Tshort of { a : int; b : int; down_for : float }
      (** a link flap (Labovitz et al.'s T_short): link [(a,b)] fails
          at the event time and recovers [down_for] seconds later,
          while the network is still converging around the failure *)
  | Scenario of Faults.Scenario.t
      (** a scripted fault schedule (link fail/recover sequences, node
          crash/restart with RIB loss, session resets, flap storms,
          correlated failures, message chaos), compiled onto the event
          queue at the injection instant; step times are relative to
          [t_fail] and chaos knobs arm at [t_fail], keeping warm-up
          clean *)

(** Why the run stopped: {!Network.termination}, re-exported.  A run
    whose queue empties on its [max_events]-th event is [Drained]. *)
type termination = Network.termination =
  | Drained  (** the event queue emptied: the network converged *)
  | Event_budget  (** [max_events] fired first — a would-be hang *)
  | Vtime_budget  (** the next event lies beyond [max_vtime] *)
  | Wall_budget
      (** a watchdog expired; a routing run arms none, so it never
          ends this way *)

val termination_name : termination -> string

type outcome = {
  trace : Netcore.Trace.t;
  prefix : Prefix.t;
  t_fail : float;  (** failure injection time *)
  convergence_end : float;
      (** time the last post-failure message was sent; [t_fail] when the
          event generated no messages *)
  converged : bool;
      (** both phases drained within the event and virtual-time budgets *)
  termination : termination;  (** how phase 2 ended *)
  warmup_end : float;
  updates_after_fail : int;  (** announcements sent at/after [t_fail] *)
  withdrawals_after_fail : int;  (** withdrawals sent at/after [t_fail] *)
  events_executed : int;
  route_changes : int;  (** total best-route changes across all speakers *)
  paths_interned : int;
      (** distinct AS paths interned into the run's arena — an
          occupancy/path-diversity gauge (see DESIGN.md §12) *)
  invariant_violations : (Faults.Invariant.kind * int) list;
      (** nonzero counters from the run's invariant checker (always []
          when [invariants] is [Off] or [Strict] — strict raises) *)
}

val convergence_time : outcome -> float
(** [convergence_end - t_fail]. *)

val run :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  graph:Topo.Graph.t ->
  origin:int ->
  event:event ->
  seed:int ->
  unit ->
  outcome
(** [run ~graph ~origin ~event ~seed ()] simulates the scenario.
    Defaults: the paper's {!Netcore.Params.default} and {!Config.default}
    (standard BGP, MRAI 30 s), [max_events = 20_000_000], no virtual-time
    budget, invariants [Off].

    [max_events] and [max_vtime] are hang protection: a non-terminating
    schedule (e.g. a persistent flap storm faster than convergence)
    stops at the budget with [termination <> Drained] instead of
    spinning.  [invariants] threads a {!Faults.Invariant.t} through the
    engine clock, every link delivery and every speaker decision;
    [Strict] raises {!Faults.Invariant.Violation} on the first breach,
    [Record] counts into [invariant_violations].

    [obs] (default {!Obs.Bus.off}) receives the full trace-event stream
    (message send/recv, FIB changes, link transitions, MRAI fires, node
    occupancy, drops) and counter bumps.  [profile], when given, is
    handed to {!Network.create}, which feeds it per-event-tag wall time
    and minor words through the engine's step profiler.
    @raise Invalid_argument if [origin] is out of range, the graph is
    not connected, an event link does not exist, or a scenario fails
    validation. *)

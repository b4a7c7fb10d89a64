(** Multi-prefix routing simulation.

    The paper's experiments route a single destination; real BGP
    speakers carry many prefixes over the same sessions and, crucially,
    through the same per-router processing queue.  This simulation
    originates one prefix at each of several origin ASes, converges,
    then injects a [T_down] at the victim origin while (optionally) the
    other origins keep flapping their prefixes — so the victim's
    convergence-critical updates queue behind background churn.

    This quantifies an interaction the single-prefix study cannot see:
    update load on shared routers lengthens both convergence and
    transient looping for an unrelated prefix. *)

type churn = {
  period : float;
      (** a flapping origin withdraws its prefix, re-announces it half
          a period later, and repeats *)
  cycles : int;  (** number of withdraw/re-announce cycles, from the
                     failure time *)
  flappers : int list;  (** indices into [origins] of the flapping ones *)
}

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
      (** one forwarding history per prefix, in [origins] order *)
  trace : Netcore.Trace.t;
      (** message/process/link logs (all prefixes combined); its FIB
          history is unused — per-prefix histories are above *)
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
      (** last send of a message for the victim prefix at/after
          [t_fail] *)
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Routing_sim.termination;  (** how the post-failure phase ended *)
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
      (** distinct AS paths interned into the run's arena (all prefixes
          share it); see DESIGN.md §12 *)
}

val convergence_time : outcome -> float

val run :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?churn:churn ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  graph:Topo.Graph.t ->
  origins:int list ->
  victim:int ->
  seed:int ->
  unit ->
  outcome
(** [run ~graph ~origins ~victim ~seed ()] originates one prefix per
    origin, converges, then withdraws the prefix of [origins[victim]].
    With [churn], the listed origins flap for the configured number of
    cycles starting at the failure time.  [obs] (default {!Obs.Bus.off})
    receives message, node-occupancy and drop events plus counters; FIB
    changes are not emitted here (the event stream carries no prefix
    discriminator).  @raise Invalid_argument on an
    empty or out-of-range [origins]/[victim], duplicate origins, or a
    flapper index equal to [victim]. *)

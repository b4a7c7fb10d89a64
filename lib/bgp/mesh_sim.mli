(** Full-mesh multi-prefix simulation: every AS (by default) originates
    its own prefix over one shared {!Network}.

    All speakers share one path arena and one {!Prefix.Table}
    (pre-interned in origin order, so prefix id = index into the origin
    list).  Each speaker keeps every destination's Adj-RIB-In and
    Adj-RIB-Out as arrays indexed by peer slot ({!Peer_table}), with
    one batched MRAI timer per peer keyed by prefix id — the workload
    the single-prefix study cannot express: N² routing processes
    contending for the same per-router queues.  After the warm-up the victim
    origin withdraws its prefix while (optionally) other origins keep
    flapping theirs, so the victim's convergence-critical updates queue
    behind background churn on every shared router.

    Observability is per prefix: [Update_sent]/[Update_recv]/
    [Originate]/[Withdrawal]/[Fib_change] events carry the prefix id,
    and a {!Loopscan.Scanner} tracker per prefix (armed on the converged
    warm-up state and fed each change as it happens) emits
    [Loop_detected]/[Loop_resolved] events chronologically interleaved
    with the forwarding changes that caused them.

    Restricted to a single origin, a run evolves identically to
    {!Routing_sim}'s [Tdown] — same RNG stream, same event schedule,
    same FIB history and convergence numbers; test/test_differential.ml
    enforces this. *)

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
      (** one forwarding history per prefix, in origin order (so the
          list index is the prefix id used in trace events) *)
  loop_reports : (Prefix.t * Loopscan.Scanner.report) list;
      (** per-prefix loop reports over the post-warm-up phase, equal
          to {!Loopscan.Scanner.scan} of the prefix's history from
          [t_fail]; empty when the warm-up did not drain (the trackers
          need a loop-free converged state to start from) *)
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
      (** last send of a message for the victim prefix at/after
          [t_fail] *)
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Network.termination;
      (** how the post-failure phase ended *)
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
      (** distinct AS paths interned into the run's arena (all prefixes
          share it); see DESIGN.md §12 *)
  events_executed : int;  (** engine events over both phases *)
}

val convergence_time : outcome -> float

val run :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?churn:churn ->
  ?origins:int list ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  graph:Topo.Graph.t ->
  victim:int ->
  seed:int ->
  unit ->
  outcome
(** [run ~graph ~victim ~seed ()] originates one prefix per origin
    (default: every node), converges, then withdraws the prefix of
    [origins[victim]].  With [churn], the listed origins flap for the
    configured number of cycles starting at the failure time.
    [profile] is handed to {!Network.create}.
    @raise Invalid_argument on an empty or out-of-range
    [origins]/[victim], duplicate origins, a flapper index equal to
    [victim], a disconnected graph, or non-positive budgets. *)

(** One self-contained experiment: topology + failure event +
    enhancement + MRAI + seed, run end to end (routing simulation,
    traffic replay, loop scan) into {!Metrics.Run_metrics.t}.

    The topology/event conventions follow the paper:

    - [Clique n]: destination AS is node 0 ([T_down] withdraws it;
      [T_long] fails one of its links, picked by seed);
    - [B_clique n] (2n nodes): destination is node 0, [T_long] fails
      the direct core link [(0, n)], leaving the length-n chain as the
      backup path;
    - [Internet n]: a seeded AS-like graph; the destination is drawn
      among the lowest-degree (stub) nodes, and [T_long] fails a
      seed-chosen destination link that keeps the graph connected
      (redrawing the destination if it is single-homed);
    - [Waxman n] / [Glp n]: alternative random models with the same
      destination/link conventions as [Internet], for topology
      provenance studies;
    - [Custom]: caller-provided graph and origin. *)

type topology =
  | Clique of int
  | B_clique of int  (** the paper's size parameter; the graph has 2n nodes *)
  | Internet of int
  | Waxman of int  (** Waxman random graph (provenance studies) *)
  | Glp of int  (** GLP random graph (provenance studies) *)
  | Custom of { graph : Topo.Graph.t; origin : int; name : string }

type event_spec =
  | Tdown
  | Tlong  (** the topology's canonical long-path failure (see above) *)
  | Tlong_link of int * int  (** an explicit link *)
  | Tup  (** inverse of [Tdown]: the prefix appears (extension) *)
  | Trecover
      (** inverse of [Tlong]: the canonical link comes back after the
          network converged without it (extension) *)
  | Trecover_link of int * int
  | Scenario of Faults.Scenario.t
      (** a scripted fault schedule (see {!Faults.Scenario});
          destination selection follows the [Tdown] convention *)

type spec = {
  topology : topology;
  event : event_spec;
  enhancement : Bgp.Enhancement.t;
  mrai : float;
  seed : int;
  params : Netcore.Params.t;
  replay_tail : float;
      (** seconds of traffic kept flowing past convergence to catch
          loops that outlive the last sent message; the looping-ratio
          denominator still counts only packets sent during
          convergence *)
  invariants : Faults.Invariant.mode;
      (** runtime invariant checking for the routing simulation *)
  max_events : int;  (** per-run event budget (hang protection) *)
  max_vtime : float option;
      (** per-run virtual-time budget; [None] = unbounded *)
  max_wall_s : float option;
      (** per-run wall-clock budget covering the simulation {e and}
          the post-run analyses; [None] = unbounded.  An expired run
          terminates with {!Bgp.Routing_sim.Wall_budget} and its
          remaining analysis phases degrade to empty fallbacks. *)
  preflight : Analysis.Preflight.mode;
      (** static pre-flight analysis before the simulator starts:
          [Off] (default) skips it, [Warn] attaches the report to the
          run, [Strict] additionally raises
          {!Analysis.Preflight.Rejected} — before a single event is
          scheduled — when the instance is statically doomed (an
          [Unsafe] policy verdict or a scenario lint error such as a
          dangling link reference) *)
}

val default_spec : topology -> spec
(** [T_down], standard BGP, MRAI 30 s, seed 1, paper parameters,
    2 s replay tail, invariants off, 20 M event budget, no
    virtual-time or wall-clock budget, pre-flight off. *)

val topology_name : topology -> string

val event_name : event_spec -> string

val node_count : topology -> int

val resolve_raw : spec -> Topo.Graph.t * int * Bgp.Routing_sim.event
(** Like {!resolve} but without the scenario sanity check — what the
    static pre-flight runs on, so a broken script is diagnosed by the
    linter (all issues collected) instead of a first-error raise. *)

val resolve :
  spec -> Topo.Graph.t * int * Bgp.Routing_sim.event
(** The concrete graph, origin and failure event a spec denotes
    (deterministic in the seed).  Exposed for examples and tests.
    @raise Invalid_argument on specs that cannot be realized (e.g.
    [Tlong] on a topology where every candidate link disconnects the
    destination). *)

val analyze :
  ?max_paths:int ->
  ?policy:Bgp.Policy.t ->
  ?gr_rel:(int -> int -> Bgp.Policy.relationship) ->
  spec ->
  Analysis.Preflight.report
(** The static pre-flight report a spec denotes, without running the
    simulator: policy-safety verdict, scenario lint (when the event is
    a [Scenario]) and convergence bounds.  [policy] overrides the one
    the spec's enhancement configuration would use; [gr_rel] enables
    the Gao-Rexford fallback certificate (see {!Analysis.Spvp.analyze}).
    Clique topologies get the closed-form rank bound, and [Tdown]/[Tup]
    a [Certified] time bound. *)

(** Structured convergence status of a finished run: a run that hit an
    event or virtual-time budget is reported as [Non_converged] instead
    of hanging forever. *)
type status =
  | Completed
  | Non_converged of {
      termination : Bgp.Routing_sim.termination;
      events_executed : int;
      last_vtime : float;
    }

val status : Bgp.Routing_sim.outcome -> status

val status_name : status -> string

type run = {
  spec : spec;
  outcome : Bgp.Routing_sim.outcome;
  replay : Traffic.Replay.result;
  loops : Loopscan.Scanner.report;
  metrics : Metrics.Run_metrics.t;
  analysis : Analysis.Preflight.report option;
      (** the pre-flight report; [None] when [spec.preflight = Off] *)
  bound_violations : Analysis.Bounds.violation list;
      (** certified static bounds the finished run exceeded — always
          [] when the pre-flight was off or the run did not converge *)
}

val run :
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  ?watchdog:Faults.Watchdog.t ->
  spec ->
  run
(** Runs the full pipeline.  [obs] (default {!Obs.Bus.off}) is threaded
    through the routing simulation {e and} the loop scanner, so a trace
    carries both live protocol events and post-hoc loop lifecycles;
    [profile] collects per-event-tag timings.  Every exit — converged
    or budget-exhausted — yields timed metrics: on non-converged runs
    the replay/scan analyses fall back to empty results if the
    truncated history cannot be analyzed.

    [watchdog] overrides the wall-clock watchdog the run would arm
    from [spec.max_wall_s] — the deterministic-test hook (inject one
    with a fake clock).  The watchdog covers the simulation and every
    post-run analysis phase: each phase re-checks expiry before
    starting and degrades to its empty fallback once the budget is
    gone. *)

val metrics : spec -> Metrics.Run_metrics.t
(** [metrics spec = (run spec).metrics]. *)

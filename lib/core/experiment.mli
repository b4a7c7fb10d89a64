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
  preflight : Analysis.Preflight.mode;
      (** [Strict] runs the static pre-flight ({!analyze}) before the
          simulator starts and raises {!Analysis.Preflight.Rejected} —
          before a single event is scheduled — when the instance is
          statically doomed (an [Unsafe] policy verdict or a scenario
          lint error such as a dangling link reference).  [Off]
          (default) and [Warn] run no analysis: a caller that wants
          the report calls {!analyze} itself, as the CLI does. *)
}

val default_spec : topology -> spec
(** [T_down], standard BGP, MRAI 30 s, seed 1, paper parameters,
    2 s replay tail, invariants off, 20 M event budget, no
    virtual-time budget, pre-flight off. *)

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

(** A run's convergence status is its outcome's: [converged], and the
    [termination] that says which budget, if any, stopped it. *)
type run = {
  spec : spec;
  outcome : Bgp.Routing_sim.outcome;
  replay : Traffic.Replay.result;
  loops : Loopscan.Scanner.report;
  metrics : Metrics.Run_metrics.t;
}

val run : ?obs:Obs.Bus.t -> ?profile:Obs.Profile.t -> spec -> run
(** Runs the full pipeline.  [obs] (default {!Obs.Bus.off}) is threaded
    through the routing simulation {e and} the loop scanner, so a trace
    carries both live protocol events and post-hoc loop lifecycles;
    [profile] collects per-event-tag timings.  Every exit — converged
    or budget-exhausted — yields timed metrics: on non-converged runs
    the replay/scan analyses fall back to empty results if the
    truncated history cannot be analyzed.
    @raise Analysis.Preflight.Rejected under a [Strict] pre-flight, as
    described at [spec.preflight]. *)

val metrics : spec -> Metrics.Run_metrics.t
(** [metrics spec = (run spec).metrics]. *)

(** A graph wired into a running BGP network: the paper's network model
    (one link per edge, one serial processing queue per router, one
    {!Speaker.t} per node) on one engine, with one invariant checker and
    one path arena.  {!Routing_sim}, {!Mesh_sim} and the churn driver
    are scripts over it: they choose what originates when, what is
    injected and what is measured. *)

(** Why a phase stopped.  The queue is looked at first, so a phase that
    empties its queue on its last allowed event is [Drained]. *)
type termination =
  | Drained  (** the event queue emptied: the network converged *)
  | Event_budget  (** the event cap was reached first — a would-be hang *)
  | Vtime_budget  (** the next event lies beyond [until] *)
  | Wall_budget
      (** the watchdog expired mid-phase; the engine stopped at an event
          boundary *)

val termination_name : termination -> string

val failure_gap : float
(** Quiet gap (10 s) between the warm-up's end and the injected
    failure.  Any value works: a drained network is silent. *)

val speaker_rngs : Dessim.Rng.t -> n:int -> Dessim.Rng.t array
(** [speaker-0] .. [speaker-(n-1)], split from the root in node order.
    {!Dessim.Rng.split} advances its parent, so where this call sits
    among the caller's other splits is part of the trace. *)

type t

val create :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  ?prefixes:Prefix.Table.t ->
  ?on_send:(Msg.t -> unit) ->
  engine:Dessim.Engine.t ->
  graph:Topo.Graph.t ->
  origins:(int * Prefix.t) list ->
  proc_rng:Dessim.Rng.t ->
  speaker_rngs:Dessim.Rng.t array ->
  on_next_hop_change:(int -> prefix:Prefix.t -> next_hop:int option -> unit) ->
  unit ->
  t
(** Builds the network on [engine]; nothing is scheduled.  [origins]
    pairs each origin node with its configured prefix.  [proc_rng] draws
    the processing delays, [speaker_rngs.(i)] node [i]'s MRAI jitter,
    and [on_next_hop_change i] is node [i]'s FIB hook.  Defaults: the
    paper's {!Netcore.Params.default} and {!Config.default}, invariants
    [Off], {!Obs.Bus.off}.

    With [profile], [engine]'s step profiler feeds it per-tag wall time
    and minor words ({!Obs.Profile.step}); without it the engine keeps
    its profiler-free path.

    Every send, completed processing and link transition goes to [obs]
    as an [Update_sent], [Update_recv] or [Link_state] event.  With
    [prefixes], the speakers share that table and tag their events with
    its dense ids, and so do the update events sent here.  [on_send msg]
    runs for every message sent, at the engine's current time: the
    scripts count convergence through it.
    @raise Invalid_argument on invalid params or config, or a
    disconnected graph. *)

val speaker : t -> int -> Speaker.t

val link : t -> int -> int -> Netcore.Link.t
(** The link between two adjacent nodes, either way round.
    @raise Invalid_argument when they are not adjacent. *)

val links_down : t -> (int * int) array
(** The failed links as [(a, b)] with [a < b], sorted. *)

val arm_chaos : t -> loss:float -> dup:float -> rng:Dessim.Rng.t -> unit
(** {!Netcore.Link.set_chaos} on every link, in edge order. *)

val paths : t -> As_path.Table.t
(** The path arena every speaker interns into. *)

val set_path_table : t -> As_path.Table.t -> unit
(** Swaps every speaker's arena; call after remapping their live paths
    into it ({!Speaker.remap_paths}). *)

val violations : t -> (Faults.Invariant.kind * int) list

val originate_all : t -> at:float -> unit
(** Schedules, tagged [originate], one origination per configured
    prefix at [at], in [origins] order. *)

val apply : t -> Faults.Scenario.action -> unit
(** A link failure or recovery takes both BGP sessions over the link
    with it; a crash drops every session to the node but keeps its
    links; a restart re-establishes the sessions over live links and
    re-originates the node's configured prefix, if any; a session reset
    bounces both sessions of a live link.  Each is a no-op when the
    element is already in the target state. *)

val run_phase :
  ?until:float ->
  ?watchdog:Faults.Watchdog.t ->
  t ->
  max_events:int ->
  termination
(** Runs the engine until its queue is empty, [max_events] events have
    executed since the engine was created, the next event lies beyond
    [until], or [watchdog] expires, and says which, in that order of
    precedence.  The engine runs in chunks of 65 536 events, and these
    are looked at between chunks; the events executed are those of one
    uninterrupted run.
    @raise Invalid_argument unless [max_events > 0] and [until], when
    given, is positive (NaN is rejected). *)

val report_counters : t -> unit
(** Adds the engine's executed events and the arena size to the bus
    counters, when the bus has any. *)

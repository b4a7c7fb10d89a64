(** Static convergence-bound certification.

    For a (topology, policy, destination, MRAI) instance the analyzer
    derives worst-case exploration bounds before any event is
    scheduled, and {!check} compares a finished run against them.

    Derivations (DESIGN.md §11):

    - {b exploration depth}: every announced AS path is a permitted
      simple path ending at the origin, so its hop count is bounded by
      the longest permitted path (exact when enumeration completed) and
      by [n - 1] always.
    - {b path-rank bound}: a node's successive best routes are drawn
      from its permitted-path set; for a recognized [n]-clique the set
      has the closed form [sum_(k=0..n-2) (n-2)!/(n-2-k)!] — the
      [O((n-1)!)] growth the paper's T_down experiments probe.
    - {b MRAI-round bound}: announcements to one neighbor are spaced at
      least one (jittered) MRAI interval apart, and under monotone
      T_down/T_up exploration each node announces each permitted path
      at most once, so convergence lasts at most [rank_max + 2] MRAI
      rounds plus processing and propagation slack.  The time bound is
      [Certified] only for such monotone events on an instance whose
      path sets were fully enumerated; everything else is reported as
      [Heuristic] and not enforced. *)

type certainty = Certified | Heuristic

type violation = { what : string; bound : float; actual : float }

type t = {
  n_nodes : int;
  exploration_depth : int;
      (** max hops of any announceable AS path (certified upper bound) *)
  depth_exact : bool;
      (** [true] when derived from a complete path enumeration (or a
          recognized clique) rather than the generic [n - 1] cap *)
  rank_max : float;
      (** max permitted paths at any single node; [infinity] when not
          derivable *)
  paths_total : float;
      (** permitted paths across all nodes; [infinity] when not
          derivable *)
  mrai_rounds : float;  (** [rank_max + 2]; [infinity] when unknown *)
  time_bound_s : float;
      (** upper bound on convergence time (seconds after injection);
          [infinity] when not derivable *)
  time_certainty : certainty;
  updates_bound : float;
      (** upper bound on post-failure announcements (always
          [Heuristic]) *)
  epochs : int;
      (** scripted fault steps assumed to each restart exploration;
          1 for the single-event families *)
}

val clique_rank_bound : int -> float
(** [clique_rank_bound n] is the number of simple paths from a
    non-origin node to the origin of an [n]-clique:
    [sum_(k=0..n-2) (n-2)!/(n-2-k)!], computed in floating point so
    the [O((n-1)!)] growth never overflows.  [n >= 2]. *)

val derive :
  graph:Topo.Graph.t ->
  origin:int ->
  mrai:float ->
  params:Netcore.Params.t ->
  ?enumeration:Spvp.enumeration ->
  ?clique:int ->
  ?epochs:int ->
  ?certified_event:bool ->
  unit ->
  t
(** [clique], when the topology is a recognized [n]-clique, enables the
    closed-form rank bound even when enumeration was skipped or blown.
    [epochs] (default 1) scales the time/update bounds for scripted
    scenarios.  [certified_event] (default false) asserts the event is
    a monotone-exploration family (T_down/T_up), enabling a
    [Certified] time bound.
    @raise Invalid_argument on an out-of-range [origin], an [mrai] that
    is not finite and >= 0, [epochs < 1] or a [clique] size that does
    not match the graph. *)

val check : t -> convergence_time:float -> violation list
(** The bound a finished run exceeded: its convergence time against a
    [Certified] time bound.  A [Heuristic] bound is never enforced. *)

val certainty_name : certainty -> string

val pp : Format.formatter -> t -> unit

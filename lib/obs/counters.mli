(** Counter/gauge registry: cheap integer counters bumped by the bus,
    snapshot-able mid-run and mergeable across the runs of a parallel
    batch. *)

type per_node = {
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable decision_runs : int;
  mutable fib_changes : int;
  mutable queue_depth_hwm : int;
}

type t

val create : unit -> t

val incr_sent : t -> node:int -> withdraw:bool -> unit
val incr_recv : t -> node:int -> withdraw:bool -> unit
val incr_dropped : t -> unit
val incr_decision : t -> node:int -> unit
val incr_fib_change : t -> node:int -> unit
val incr_mrai_fire : t -> unit
val incr_link_flap : t -> unit
val incr_loop : t -> unit

val incr_trace_dropped : t -> unit
(** One trace event lost to a bounded sink (ring overwrite).  Long
    churn runs check this to detect silent trace loss. *)

val add_events : t -> int -> unit
(** Credits engine events executed: simulations add the engine's
    final executed-event count once per run instead of per event. *)

val observe_queue_depth : t -> node:int -> depth:int -> unit
(** Gauge: records the high-water mark of a node's processing queue. *)

val observe_paths_interned : t -> count:int -> unit
(** Gauge: records the high-water mark of a simulation's AS-path arena
    occupancy ({!Bgp.As_path.Table.size} at end of run). *)

type snapshot = {
  s_updates_sent : int;
  s_updates_recv : int;
  s_withdrawals_sent : int;
  s_withdrawals_recv : int;
  s_msgs_dropped : int;
  s_decision_runs : int;
  s_fib_changes : int;
  s_mrai_fires : int;
  s_link_flaps : int;
  s_loops_detected : int;
  s_events_executed : int;
  s_paths_interned : int;
  s_trace_dropped : int;
  s_nodes : (int * per_node) list;
}

val snapshot : t -> snapshot
(** Copy of the current values; safe to take mid-run. *)

val merge : snapshot -> snapshot -> snapshot
(** Counters add; high-water gauges take the max. *)

val le : snapshot -> snapshot -> bool
(** Pointwise [<=] on the global counters — monotonicity check for
    snapshots taken at increasing times within one run. *)

val pp : Format.formatter -> snapshot -> unit

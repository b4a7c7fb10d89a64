(** The trace bus: the single value threaded through the simulator.

    Zero-cost when off: every instrumented site holds a [Bus.t] that
    defaults to {!off}, and each helper starts with a single [enabled]
    bool check.  With a bus on but no sink ([Sink.null]), counters are
    bumped without constructing events. *)

type t

val off : t
(** The disabled bus — the default everywhere.  Emit helpers on [off]
    reduce to one boolean test. *)

val create : ?sink:Sink.t -> ?counters:Counters.t -> unit -> t
(** An enabled bus.  Omit [sink] for counters-only operation. *)

val enabled : t -> bool
val sink : t -> Sink.t
val counters : t -> Counters.t option

val close : t -> unit
(** Close the underlying sink (flush/close files). *)

(** {2 Emit points} — one per instrumented site.

    [?prefix] is the dense prefix id for per-prefix events; omitted
    (the single-prefix simulators) the event renders its historical
    byte-exact form. *)

val update_sent :
  ?prefix:int -> t -> time:float -> src:int -> dst:int -> withdraw:bool -> unit
val update_recv :
  ?prefix:int -> t -> time:float -> node:int -> from:int -> withdraw:bool -> unit
val originate : ?prefix:int -> t -> time:float -> node:int -> unit
val local_withdraw : ?prefix:int -> t -> time:float -> node:int -> unit
val fib_change :
  ?prefix:int -> t -> time:float -> node:int -> next_hop:int option -> unit
val mrai_fire : t -> time:float -> node:int -> peer:int -> unit

val node_submit : t -> time:float -> node:int -> busy:bool -> depth:int -> unit
(** Records the queue-depth gauge; emits [Node_busy] only when the node
    was already occupied when the message arrived. *)

val link_state : t -> time:float -> a:int -> b:int -> up:bool -> unit
val msg_dropped :
  t -> time:float -> a:int -> b:int -> reason:Event.drop_reason -> unit
val loop_detected :
  ?prefix:int -> t -> time:float -> members:int list -> trigger:int -> unit
val loop_resolved : ?prefix:int -> t -> time:float -> members:int list -> unit

val decision_run : t -> node:int -> unit
(** Counter-only: one decision-process invocation. *)

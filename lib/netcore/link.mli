(** Point-to-point link between two adjacent nodes.

    Models what the simulation needs from "BGP runs over TCP": reliable,
    in-order, fixed-delay delivery while the link is up, and loss of
    all in-flight messages when the link fails (the TCP session dies
    with the link; queued updates never arrive).  In-flight loss is
    implemented with an epoch counter: deliveries scheduled before a
    failure carry a stale epoch and are discarded on arrival.

    Two fault-injection facilities sit on top:

    - {b chaos knobs} ({!set_chaos}): probabilistic in-flight message
      loss and duplication, drawn from a caller-supplied seeded RNG so
      runs stay reproducible;
    - an {b epoch-guard switch} ({!set_epoch_guard}): turning the guard
      off lets stale messages through — a deliberately broken transport
      used to demonstrate that the {!Faults.Invariant} checker catches
      deliveries that cross a fail/recover boundary. *)

type t

val create : a:int -> b:int -> delay:float -> t
(** @raise Invalid_argument if [delay <= 0.] or [a = b]. *)

val endpoints : t -> int * int

val is_up : t -> bool

val epoch : t -> int
(** The fail/recover epoch counter (0 at creation, +1 per transition). *)

val set_chaos : t -> ?loss:float -> ?dup:float -> rng:Dessim.Rng.t -> unit -> unit
(** Arms probabilistic message chaos: each sent message is silently
    lost with probability [loss], else delivered twice with probability
    [dup] (defaults 0; both 0 disarms).  Draws come from [rng].
    @raise Invalid_argument if a probability is outside [\[0, 1]]. *)

val set_epoch_guard : t -> bool -> unit
(** Fault-injection knob, on by default.  When off, messages that
    survive to arrival with a stale epoch are {e delivered} instead of
    dropped, and the violation is reported to the attached checker. *)

val attach_checker : t -> Faults.Invariant.t -> unit
(** Routes this link's invariant reports (stale-epoch deliveries) to
    [checker]; defaults to {!Faults.Invariant.off}. *)

val attach_obs : t -> Obs.Bus.t -> unit
(** Routes this link's drop events ([Msg_dropped] with reason [Down],
    [Loss], or [Stale_epoch] — see {!Obs.Event.drop_reason}) to the
    trace bus; defaults to {!Obs.Bus.off}. *)

val fail : t -> unit
(** Takes the link down and invalidates in-flight messages.  Idempotent. *)

val restore : t -> unit
(** Brings the link back up (a fresh epoch; messages sent while down
    stay lost).  Idempotent. *)

val send :
  t -> engine:Dessim.Engine.t -> from:int -> deliver:(unit -> unit) -> bool
(** [send t ~engine ~from ~deliver] schedules [deliver] after the link
    delay.  Returns [false] (and schedules nothing) when the link is
    down at send time.  [deliver] is silently dropped if the link fails
    before the message arrives, and may be lost or duplicated when
    chaos is armed ([send] still returns [true]: the sender cannot
    tell).
    @raise Invalid_argument if [from] is not an endpoint. *)

(** Physical-layer timing parameters (paper §4.2).

    The paper deliberately sets the message processing delay two orders
    of magnitude above the link propagation delay, so that processing —
    and above it the MRAI timer — dominates loop duration, and sets a
    slow packet rate to keep queueing negligible. *)

type t = {
  link_delay : float;  (** one-way propagation delay, seconds; paper: 2 ms *)
  proc_delay_min : float;
      (** per-message processing delay lower bound; paper: 0.1 s *)
  proc_delay_max : float;  (** upper bound; paper: 0.5 s *)
  ttl : int;  (** initial packet TTL; paper: 128 *)
  pkt_rate : float;  (** packets per second per source; paper: 10 *)
}

val default : t
(** The paper's settings: 2 ms links, U(0.1, 0.5) s processing, TTL 128,
    10 pkt/s. *)

val validate : t -> unit
(** @raise Invalid_argument on a link delay or packet rate that is not
    finite and positive, a processing delay that is not finite or is
    negative, inverted processing bounds, or [ttl <= 0]. *)

val pp : Format.formatter -> t -> unit

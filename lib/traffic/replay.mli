(** Constant-rate traffic replay — the paper's measurement workload.

    Every non-destination AS hosts one source sending a constant-rate
    packet stream at the destination (paper: 10 pkt/s, chosen slow
    enough that queueing is negligible, and with a 100 ms inter-packet
    gap so loops outliving 256 ms catch at least one packet).  Sources
    are given a small random phase so they do not fire in lockstep.

    Packets are replayed over the window [t_fail, convergence_end]; the
    resulting counts define the paper's metrics: the number of TTL
    exhaustions, the looping ratio (exhaustions / packets sent during
    convergence), and the overall looping duration (first to last
    exhaustion). *)

type result = {
  sent : int;
  sent_for_ratio : int;
      (** packets sent before the ratio cutoff — the paper's "number of
          packets sent during convergence time" denominator *)
  delivered : int;
  unreachable : int;
  exhausted : int;
  first_exhaustion : float option;
  last_exhaustion : float option;
  exhaustion_times : float array;  (** sorted ascending *)
}

val overall_looping_duration : result -> float
(** Last minus first exhaustion time; [0.] with fewer than two
    exhaustions. *)

val looping_ratio : result -> float
(** [exhausted / sent_for_ratio]; [0.] when nothing was sent. *)

val run :
  fib:Netcore.Fib_history.t ->
  origin:int ->
  n:int ->
  link_delay:float ->
  ttl:int ->
  rate:float ->
  window:float * float ->
  seed:int ->
  ?ratio_cutoff:float ->
  ?sources:int list ->
  unit ->
  result
(** [run ~fib ~origin ~n ... ~window:(t0, t1) ~seed ()] replays streams
    from every node except [origin] (or from [sources] when given),
    sending each packet at [phase + k/rate] for send times in
    [\[t0, t1)].  [ratio_cutoff] (default [t1]) bounds the denominator
    of the looping ratio: experiment drivers extend the send window a
    little past convergence to catch loops that outlive the last sent
    message, while counting only packets sent during convergence.
    @raise Invalid_argument on a [rate] or [link_delay] that is not
    finite and positive, a [rate] too high to advance the send clock
    over the window, a non-positive [ttl], [t1 < t0] or an end that is
    not finite, or a source equal to [origin] / out of range. *)

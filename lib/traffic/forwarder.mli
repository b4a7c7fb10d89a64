(** Hop-by-hop packet forwarding against a FIB history.

    A packet at node [v] at time [t] is forwarded to [v]'s next hop as
    of [t] (the FIB between two change instants is constant, so this is
    exactly what a co-simulated packet would see); each hop takes one
    link delay and decrements the TTL by one — one TTL unit per AS, as
    in the paper's simulations.

    Walks run on a {!plane}: the history compiled once into flat
    per-node columns, whose lookups resume from where the node's last
    lookup ended instead of searching its whole change list. *)

type fate =
  | Delivered of { time : float; hops : int }
  | Ttl_exhausted of { time : float; at_node : int }
      (** the paper's loop indicator *)
  | Unreachable of { time : float; at_node : int }
      (** dropped at a node with no route *)

val fate_time : fate -> float

val pp_fate : Format.formatter -> fate -> unit

type plane
(** A compiled FIB history: per-node change times and next hops in
    unboxed arrays, a per-node lookup cursor and a walk's hop log.  Size
    O(n + changes).  Later changes to the history are not seen. *)

val compile : Netcore.Fib_history.t -> plane

val advance : float -> float -> int -> float
(** The walk's clock: [advance t d k] is [t] after [k] sequential
    [+. d] additions (none when [k <= 0]), bit for bit.  O(1), with no
    call into libm, while the sums stay in the binade of a positive
    normal [t] and [d] is not an odd multiple of half its ulp; otherwise
    it makes the additions. *)

val walk :
  plane ->
  origin:int ->
  link_delay:float ->
  ttl:int ->
  src:int ->
  send_time:float ->
  fate
(** [walk plane ~origin ~link_delay ~ttl ~src ~send_time] traces one
    packet from [src] to the destination attached to [origin].
    A packet that comes back to a node may jump whole laps of a loop
    whose lookups all fall before the loop's next change, with the clock
    {!advance} gives; its fate is the hop-by-hop walk's, bit for bit.
    @raise Invalid_argument if [ttl <= 0], [link_delay] is not finite
    and positive, or [src <> origin] lies outside the history's nodes. *)

(** Outcome of {!streams}; the int arrays are per source, in the order
    of [sources]. *)
type tally = {
  sources : int array;
  sent : int array;
  delivered : int array;
  unreachable : int array;
  exhausted : int array;
  sent_for_ratio : int;
      (** packets sent before [ratio_cutoff] (default [t1]) *)
  drops : float array;  (** TTL-exhaustion times, ascending *)
}

val streams :
  plane ->
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
  tally
(** The packet loop behind {!Replay.run}, with the fates also counted
    per source (the paper's footnote 4 reads them there).  Each
    source (every node but [origin] below [n] by default) sends at
    [t0 + phase + k/rate] for send times in [\[t0, t1)], its phase
    drawn in source order from [seed].  Every fate equals {!walk}'s.
    A packet whose own last lookup falls before the next change, after
    the one found, at every node its source's last walk looked up (the
    last, routeless one included) takes that walk's fate without a
    lookup: it looks up the same nodes, each no earlier than that walk
    did, and finds the same changes.  Its fate time comes from
    {!advance}.
    @raise Invalid_argument on a [rate] that is not finite and positive
    or whose interval [1 / rate] does not advance the send clock at the
    window end of largest magnitude, on [t1 < t0] or an end that is not
    finite, an
    invalid [ttl] or [link_delay] (as {!walk}), or a source equal to
    [origin] or outside [\[0, min n nodes)]. *)

(** Per-source breakdown of packet fates.

    The aggregate looping ratio hides which ASes suffered: the paper's
    footnote 4 notes, e.g., that in a B-Clique [T_long] the chain nodes
    2..n/2 are unaffected by the failure of link [(n, 0)] and their
    packets never loop.  This module measures exactly that. *)

type stats = {
  src : int;
  sent : int;
  delivered : int;
  unreachable : int;
  exhausted : int;
}

val looping_ratio : stats -> float
(** [exhausted / sent]; [0.] for an idle source. *)

val run :
  fib:Netcore.Fib_history.t ->
  origin:int ->
  n:int ->
  link_delay:float ->
  ttl:int ->
  rate:float ->
  window:float * float ->
  seed:int ->
  ?sources:int list ->
  unit ->
  stats list
(** Same workload as {!Replay.run} (same arguments, same per-source
    phase draws, same packet loop) but keeps the counters per source,
    ascending by source.
    @raise Invalid_argument as {!Replay.run}. *)

val affected : stats list -> int list
(** Sources that saw at least one TTL exhaustion, ascending. *)

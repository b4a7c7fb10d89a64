(** Time-indexed history of every node's next hop for one destination.

    The routing simulation appends next-hop changes as they happen; the
    forwarding replay and the loop scanner then query the state at any
    instant.  A next hop of [None] means "no route" (packets are
    dropped as unreachable).

    Change times are required to be nondecreasing per node — the
    simulation appends in virtual-time order. *)

type t

type change = { time : float; node : int; next_hop : int option }

val create : n:int -> t
(** All nodes start with no route. *)

val n_nodes : t -> int

val record : t -> time:float -> node:int -> next_hop:int option -> unit
(** Appends a change.  Recording the same next hop a node already has
    is ignored (not a change).
    @raise Invalid_argument if [time] is NaN or precedes the node's
    last change, or if [node] or the next hop is outside [\[0, n)]. *)

val lookup : t -> node:int -> time:float -> int option
(** Next hop in effect at [time]: the latest change with
    [change.time <= time], or [None] before any change. *)

val snapshot : t -> before:float -> int option array
(** Per-node next hops in effect just before [before] (changes with
    [time < before]). *)

val changes_from : t -> from:float -> change list
(** All changes with [time >= from], in chronological (and for equal
    times, recording) order. *)

val change_count : t -> int

val last_change_time : t -> float option

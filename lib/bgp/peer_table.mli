(** A speaker's slot table: every peer it has ever had a session with
    owns a fixed slot, and the speaker keeps its per-peer state (one
    Adj-RIB-In and one Adj-RIB-Out entry per destination, one MRAI
    limiter) in arrays indexed by that slot.

    The peers given to {!create} take slots [0 .. k-1] in ascending id
    order; a peer first seen later, through {!add}, takes the next free
    slot.  A slot never moves and is never reused, so a slot-indexed
    array stays valid across any session churn; only a new peer makes
    such arrays grow, by one.

    A live flag per slot says whether the session is up.  Lookups are
    binary searches over the ids; iteration walks the live slots in
    ascending peer id, the order the decision process and the per-peer
    sync rely on for determinism.  Mutations (session up/down) are rare
    and may pay O(slots). *)

type t

val create : int list -> t
(** From an unsorted, possibly duplicated peer list; all start live. *)

val n_slots : t -> int
(** Number of slots allocated: the distinct peers ever added. *)

val slot : t -> int -> int
(** [slot t peer] is [peer]'s slot, live or not, or [-1] when [peer]
    was never added. *)

val live_slot : t -> int -> int
(** [peer]'s slot when its session is up, [-1] otherwise. *)

val peer_of_slot : t -> int -> int
(** @raise Invalid_argument on a slot outside [0 .. n_slots - 1]. *)

val mem : t -> int -> bool
(** Whether [peer]'s session is up. *)

val add : t -> int -> unit
(** Marks [peer] live, allocating its slot on first sight.  No-op when
    already live. *)

val remove : t -> int -> unit
(** Marks [peer] not live; its slot stays.  No-op when not live. *)

val clear : t -> unit
(** Marks every peer not live. *)

val cardinal : t -> int
(** Number of live peers. *)

val slot_at : t -> int -> int
(** [slot_at t i] is the [i]th live slot in ascending peer id, for
    [0 <= i < cardinal t]: with {!cardinal}, a plain loop over the
    slots {!iter_slots} visits, with no closure. *)

val iter_slots : (int -> int -> unit) -> t -> unit
(** [iter_slots f t] calls [f slot peer] for every live peer, in
    ascending peer id. *)

val to_list : t -> int list
(** Live peers, ascending. *)

(** A BGP speaker: the per-AS protocol instance.

    The speaker keeps, per destination prefix, the latest path received
    from each neighbor (Adj-RIB-In), its chosen best route (Loc-RIB) and
    what it has announced to each neighbor (Adj-RIB-Out), and runs the
    decision process of the paper's model:

    - {b path-based poison reverse}: a received path containing this AS
      is discarded — and, per the BGP spec's implicit-withdraw rule, it
      replaces (removes) the neighbor's previous usable entry;
    - {b preference} by the configured {!Policy.t} (default: shortest
      path, lowest-ID tie-break);
    - {b MRAI} per (neighbor, destination) on announcements, with
      withdrawals exempt unless WRATE is configured;
    - the {b SSLD}, {b Assertion} and {b Ghost Flushing} enhancements
      when enabled in {!Config.t}.

    The speaker is transport-agnostic: it emits messages through a
    callback and is driven by {!handle_msg} / {!session_down} calls from
    the surrounding simulation. *)

type t

val create :
  ?checker:Faults.Invariant.t ->
  ?obs:Obs.Bus.t ->
  ?paths:As_path.Table.t ->
  ?prefixes:Prefix.Table.t ->
  engine:Dessim.Engine.t ->
  config:Config.t ->
  rng:Dessim.Rng.t ->
  node:int ->
  peers:int list ->
  emit:(peer:int -> Msg.t -> unit) ->
  on_next_hop_change:(prefix:Prefix.t -> next_hop:int option -> unit) ->
  unit ->
  t
(** [rng] drives this speaker's MRAI jitter draws.  [emit] must deliver
    (or drop) the message; it is called at the virtual time the message
    leaves.  [on_next_hop_change] fires whenever the forwarding next hop
    for a prefix changes ([None] = no route; the origin's own prefix
    also reports [None] since packets terminate there).

    [checker] (default {!Faults.Invariant.off}) receives runtime
    invariant reports: Loc-RIB/Adj-RIB-In coherence and next-hop
    liveness after every decision, poison-reverse soundness after every
    Adj-RIB-In mutation.

    [obs] (default {!Obs.Bus.off}) receives [Originate]/[Withdrawal]
    trace events, per-peer [Mrai_fire] events and decision-process
    counter bumps.

    [paths] (default: the domain's {!As_path.default_table}) is the
    arena this speaker interns announcement paths into; a simulation
    passes one shared arena to all of its speakers so that handles
    flowing between them compare in O(1).

    [prefixes] (default: a private table) interns destination prefixes
    to dense ids; a prefix id indexes the speaker's destinations and
    keys its MRAI limiters.  A mesh simulation passes one shared table
    to all of its speakers so that trace prefix ids agree across
    nodes.  Given [prefixes], the speaker also tags its [Originate] and
    [Withdrawal] events with the prefix id; without it, events are
    untagged, so single-prefix traces keep their byte-exact form. *)

val node : t -> int

val peers : t -> int list
(** Live peers (sessions up), ascending. *)

val originate : t -> Prefix.t -> unit
(** Install a local route for [prefix] and announce it. *)

val withdraw_local : t -> Prefix.t -> unit
(** Remove the local route — the paper's [T_down] event at the origin. *)

val handle_msg : t -> from:int -> Msg.t -> unit
(** Process a routing message (to be called after the processing
    delay). *)

val session_down : t -> peer:int -> unit
(** The link to [peer] failed: drop its Adj-RIB-In entries, reset its
    MRAI state, re-decide.  Idempotent. *)

val session_up : t -> peer:int -> unit
(** A (new or recovered) session to [peer] established: start with an
    empty Adj-RIB-In for it and advertise our current best routes, as a
    real BGP speaker dumps its table to a fresh peer.  Idempotent;
    ignored while the speaker is crashed. *)

(** {2 Crash / restart} *)

val alive : t -> bool

val crash : t -> unit
(** The node dies losing all protocol state: every RIB entry, pending
    MRAI transmission and damping timer is gone, all sessions drop (the
    surrounding simulation must also [session_down] the surviving
    peers), and the node's FIB empties.  Messages delivered while
    crashed are dropped.  Idempotent. *)

val restart : t -> unit
(** The crashed node boots back up with empty RIBs and no sessions.
    The surrounding simulation re-establishes sessions ({!session_up}
    on both ends of each surviving link) and re-originates local
    prefixes.  A no-op on a live node. *)

(** {2 Inspection} *)

val best : t -> Prefix.t -> (int option * As_path.t) option
(** [(learned_from, path)] of the current best route; [learned_from =
    None] and the empty path for a local route. *)

val next_hop : t -> Prefix.t -> int option

val rib_in : t -> Prefix.t -> (int * As_path.t) list
(** Current Adj-RIB-In entries, by peer, ascending. *)

val advertised_to : t -> Prefix.t -> peer:int -> As_path.t option
(** What [peer] currently holds from us (Adj-RIB-Out after the last
    transmitted message). *)

val route_change_count : t -> int
(** Number of best-route changes since creation (any attribute, not
    just next hop). *)

val suppressed_peers : t -> Prefix.t -> int list
(** Peers whose route for [prefix] is currently suppressed by
    route-flap damping, ascending; always [[]] when damping is off. *)

(** {2 Quiescence, arena compaction and checkpointing}

    Long-horizon (churn) runs snapshot speakers at epoch boundaries and
    swap their path arena for a freshly compacted one.  All three
    operations below are only meaningful at {!quiescent} points. *)

val quiescent : t -> bool
(** [true] when the speaker holds no timed state: no MRAI timer
    running, no pending rate-limited message, no damping reuse timer.
    At such a point the speaker's behavior is fully determined by its
    RIBs, so it can be snapshotted or have its arena swapped. *)

val remap_paths : t -> f:(As_path.t -> As_path.t) -> unit
(** Replace every live path handle (Adj-RIB-In entries, the Loc-RIB
    best, Adj-RIB-Out advertised paths) with [f handle].  [f] must
    return a structurally equal path — e.g. {!As_path.reintern} into a
    fresh arena.  Only safe at quiescence: pending messages and
    scheduled events may hold handles this walk cannot reach. *)

val set_path_table : t -> As_path.Table.t -> unit
(** Swap the arena new announcement paths are interned into; call
    after {!remap_paths} into the same table. *)

val path_table : t -> As_path.Table.t

val prefix_table : t -> Prefix.Table.t
(** The prefix-interning table whose ids index this speaker's
    destinations (shared across speakers in a mesh simulation). *)

(** Marshal-safe snapshot of a quiescent speaker's protocol state:
    paths are flattened to AS arrays and re-interned on restore,
    per-peer entries listed by ascending peer id and destinations by
    prefix, so the bytes do not depend on slot numbers.  Peers holding
    no route from us are omitted from [sn_advertised]: a fresh
    out-state is behaviorally identical. *)
type dest_snapshot = {
  sn_prefix : Prefix.t;
  sn_local : bool;
  sn_rib_in : (int * int array) array;
  sn_best : (int option * int array) option;
  sn_advertised : (int * int array) array;
}

type snapshot = {
  sn_node : int;
  sn_alive : bool;
  sn_peers : int array;
  sn_route_changes : int;
  sn_dests : dest_snapshot array;
}

val snapshot : t -> snapshot
(** @raise Invalid_argument if the speaker is not {!quiescent} or has
    route-flap damping configured (damping state is not
    snapshotable). *)

val restore : t -> snapshot -> unit
(** Write [snapshot] into a freshly created, empty speaker (same node
    id, same config).  No decision process runs, nothing is emitted
    and [on_next_hop_change] does not fire — the caller re-seeds its
    FIB view from the same checkpoint.  A peer in [sn_peers] the
    speaker was not created with takes the next free slot.
    @raise Invalid_argument on a node mismatch, a non-empty speaker or
    an entry for a peer missing from [sn_peers]. *)

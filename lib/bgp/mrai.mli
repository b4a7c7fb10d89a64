(** Minimum Route Advertisement Interval rate limiter, one instance per
    neighbor with rate-limit state kept per destination key — the
    paper's per-(neighbor, destination) model, with one {e physical}
    engine timer per limiter instead of one per destination.  The
    running keys sit in a {!Dessim.Event_queue} ordered by deadline, so
    an expiry touches only the expired keys.

    Keys are dense non-negative ints — a speaker uses prefix ids — and
    index an array grown on demand to the largest key seen, so a key
    costs one array cell, not a hash probe.  Every keyed operation
    raises [Invalid_argument] on a negative key.

    Each key runs its own interval: a key whose interval is idle
    transmits an {!offer}ed message immediately (another key's running
    interval never delays it) and starts its interval; while a key's
    interval runs, offered messages are held for that key (replacing
    its pending message in [Collapse] mode).  The shared timer sits at
    the earliest deadline; on expiry {e every} expired key releases at
    most one message — keys visited in interval-start order — and each
    key that actually released re-arms its own interval.  A key only
    stays rate-limited when the transmit callback reports something
    left (duplicate announcements are suppressed by the caller and
    must not hold an interval).

    With a single key this is exactly the historical per-(neighbor,
    destination) limiter — same transmit points, same jitter draws,
    same fire times; golden traces rely on that equivalence.

    {!send_now} bypasses the interval entirely — RFC 1771 withdrawals
    and Ghost Flushing's flush withdrawals — without touching it. *)

type 'msg t

type mode =
  | Collapse
      (** only the latest offered message per key is pending; superseded
          states are never transmitted (our best reading of the MRAI's
          intent, and the default) *)
  | Fifo
      (** offered messages queue up per key and drain one per timer
          expiry, so stale intermediate states still reach the peer.
          Provided as an ablation: some BGP implementations buffer
          updates rather than collapsing them, which lengthens
          inconsistency windows (see EXPERIMENTS.md on WRATE). *)

val create :
  ?mode:mode ->
  ?on_fire:(unit -> unit) ->
  engine:Dessim.Engine.t ->
  draw_interval:(unit -> float) ->
  transmit:(key:int -> 'msg -> bool) ->
  unit ->
  'msg t
(** [transmit ~key msg] performs the actual send of [msg], offered or
    sent under [key], and returns whether a message really left
    (false = suppressed duplicate).  [draw_interval] is
    drawn once per interval start, per key.  [on_fire] is invoked at
    the start of each physical timer expiry, before any pending
    message is transmitted (observability hook); batching means one
    expiry may release several keys.  [mode] defaults to [Collapse]. *)

val offer : ?key:int -> 'msg t -> 'msg -> unit
(** Rate-limited send for destination [key] (default [0]).
    @raise Invalid_argument when [key < 0]. *)

val send_now : ?key:int -> 'msg t -> keep_pending:bool -> 'msg -> unit
(** Immediate send, ignoring and not re-arming [key]'s interval.
    [keep_pending:false] also discards [key]'s pending message (it is
    superseded, e.g. by a plain withdrawal); [keep_pending:true] leaves
    it to go out on expiry (Ghost Flushing: the flush withdrawal
    precedes the still-scheduled announcement).  Other keys' pending
    state is never touched.  @raise Invalid_argument when [key < 0]. *)

val timer_running : _ t -> bool
(** Whether the shared physical timer is scheduled, i.e. at least one
    key's interval is running. *)

val key_running : _ t -> int -> bool
(** [key_running t key]: whether [key]'s own interval is running, i.e.
    an {!offer} for [key] would be held rather than sent at once.
    Other keys' intervals do not count.
    @raise Invalid_argument when [key < 0]. *)

val pending_count : _ t -> int
(** Total over all keys ([Collapse]: at most one per key; [Fifo]: the
    queue lengths). *)

val reset : _ t -> unit
(** Session teardown: cancels the timer and drops all rate-limit
    state. *)

(** Per-node serial message processor.

    A router processes one routing message at a time; each message
    occupies the CPU for a random draw of the processing delay.  This
    serialization is behaviourally significant: the paper's footnote 5
    attributes Ghost Flushing's degradation on large cliques to real
    path information queueing behind storms of flushing withdrawals.

    The queue is a FIFO lane: an accepted message reserves its engine
    sequence number on arrival ({!Dessim.Engine.reserve}), but only the
    lane's head holds an engine event; the next one is scheduled when
    the head fires.  Messages therefore complete at exactly the times
    and in exactly the order one event per message would give, while
    the engine's heap holds one entry per busy router, not one per
    queued message. *)

type 'a t
(** A lane carrying payloads of type ['a] (a bare [float] payload is
    not supported). *)

val create :
  ?obs:Obs.Bus.t ->
  ?node:int ->
  engine:Dessim.Engine.t ->
  process:(from:int -> 'a -> unit) ->
  unit ->
  'a t
(** [process ~from msg] is the protocol handler, run when the CPU
    finishes [msg].  [obs] (default {!Obs.Bus.off}) receives a
    queue-depth gauge sample on every submit and a [Node_busy] event
    when a message arrives while the CPU is occupied; [node] identifies
    this processor in those records (default [-1] = anonymous, counted
    globally only). *)

val busy_until : _ t -> float

val queue_depth : _ t -> int
(** Messages accepted but whose processing has not completed, the head
    included.  Only the head is counted by {!Dessim.Engine.pending}. *)

val submit : 'a t -> delay:float -> from:int -> 'a -> unit
(** [submit t ~delay ~from msg] enqueues [msg] from [from], arriving
    now; [process ~from msg] runs when the CPU reaches it, i.e. at
    [max now busy_until +. delay].
    @raise Invalid_argument if [delay < 0.]. *)

(** The sustained-churn service mode: one persistent simulation driven
    through a long horizon of workload epochs.

    Each epoch schedules one {!Workload.generate} batch of churn events
    and runs the engine to drain.  Drained epoch boundaries are where
    everything interesting happens, because a drained network is plain
    data (no queued events, no running MRAI timers, no in-flight
    messages):

    - the per-epoch trace digest ([d_i], md5 over the epoch's
      {!Obs.Binary} frames — no JSON rendering on the hot path) is
      folded into a rolling chain ([c_i = md5(c_(i-1) ^ d_i)]) — the
      golden value the resume-equivalence tests compare;
    - the path arena is compacted every [compact_every] epochs:
      every live handle is re-interned into a fresh arena
      ({!Bgp.As_path.reintern} via {!Bgp.Speaker.remap_paths}),
      guarded by the invariant that contents and hash survive —
      so arena growth is bounded by the live set, not churn history;
    - a {!Checkpoint} is written every [checkpoint_every] epochs (and
      at every terminal boundary); a killed run resumed from it
      replays the remaining epochs bit-identically;
    - progress-stall detection: [stall_epochs] consecutive epochs
      without a single FIB change yield a structured [Stalled] status
      instead of silent spinning.

    Memory is bounded by construction: no event trace or FIB history
    is retained (observability streams through the bus), the
    forwarding state is a flat [int option array] mirror, and the loop
    tracker ({!Loopscan.Scanner.t}, fed each FIB change as it happens)
    holds only live loops and running totals.  A caller that wants the
    FIB history or the per-loop list rebuilds it from the [Fib_change]
    and [Loop_*] events on [?sink].

    Wall-clock budgets come from a {!Faults.Watchdog}: expiry is
    noticed at event-chunk granularity, the run degrades gracefully
    (sinks flushed, final counters taken, last checkpoint reported)
    and the result carries [Wall_expired]. *)

type status =
  | Completed  (** ran the requested epochs (or hit [target_events]) *)
  | Stalled of { idle_epochs : int }
      (** [stall_epochs] consecutive epochs without a FIB change *)
  | Wall_expired  (** the watchdog budget ran out *)
  | Event_limit
      (** one epoch ran past 50 M engine events (hang protection) *)
  | Killed of { after_epoch : int }
      (** [kill_after_epoch] fired (deterministic kill for the
          resume tests); the boundary checkpoint was written *)

val status_name : status -> string

type cfg = {
  graph : Topo.Graph.t;
  origin : int;
  seed : int;
  bgp : Bgp.Config.t;  (** [damping] must be [None] (not snapshotable) *)
  params : Netcore.Params.t;
  workload : Workload.t;
  epochs : int;  (** total completed epochs to reach (absolute, so a
                     resumed run continues toward the same target) *)
  target_events : int option;
      (** stop [Completed] at the first boundary with at least this
          many cumulative engine events (bench sizing) *)
  checkpoint_dir : string option;
  checkpoint_every : int;  (** epochs between checkpoints *)
  compact_every : int;  (** epochs between arena compactions *)
  digest : bool;
      (** fold every trace event into the per-epoch digest chain;
          turn off for throughput benchmarks *)
  stall_epochs : int option;
  kill_after_epoch : int option;
}

val make :
  ?seed:int ->
  ?bgp:Bgp.Config.t ->
  ?params:Netcore.Params.t ->
  ?workload:Workload.t ->
  ?epochs:int ->
  ?target_events:int ->
  ?checkpoint_dir:string ->
  ?checkpoint_every:int ->
  ?compact_every:int ->
  ?digest:bool ->
  ?stall_epochs:int ->
  ?kill_after_epoch:int ->
  graph:Topo.Graph.t ->
  origin:int ->
  unit ->
  cfg
(** Defaults: seed 1, default BGP config and paper parameters, default
    workload, 10 epochs, checkpoint every 4, compact every 8, digest
    on, no stall limit, no kill. *)

val fingerprint : cfg -> string
(** Hex digest of everything that shapes the trace (graph, origin,
    seed, BGP configuration, network parameters, workload).  Stored in
    checkpoints; a resume under a different fingerprint is refused. *)

type epoch_info = {
  ei_epoch : int;
  ei_vtime : float;
  ei_events : int;  (** engine events this epoch *)
  ei_fib_changes : int;
  ei_live_loops : int;
  ei_arena_size : int;  (** after compaction, when one ran *)
  ei_compacted : bool;
  ei_checkpoint : string option;
  ei_digest : string option;  (** this epoch's trace digest *)
}

type result = {
  status : status;
  epochs_completed : int;
  events_executed : int;  (** cumulative, including pre-resume epochs *)
  vtime : float;
  chain_digest : string option;  (** the rolling chain; [None] when
                                     [digest] was off *)
  loop_totals : Loopscan.Scanner.totals;
      (** over the loops that formed after [scan_begin] (for a resumed
          run: after the original run's warm-up), survivors charged up
          to [vtime] *)
  counters : Obs.Counters.snapshot;
      (** cumulative (checkpointed counters merged in on resume) *)
  arena_size : int;
  arena_words : int;
  arena_peak : int;  (** max arena size seen at any boundary *)
  last_checkpoint : string option;
  scan_begin : float;  (** vtime the loop tracker armed (warm-up end,
                           or the resume point) *)
}

val run :
  ?watchdog:Faults.Watchdog.t ->
  ?on_epoch:(epoch_info -> unit) ->
  ?resume_from:string ->
  ?sink:Obs.Sink.t ->
  ?profile:Obs.Profile.t ->
  cfg ->
  result
(** Runs churn epochs until the configured horizon or a terminal
    condition.  [resume_from] restores a {!Checkpoint} and continues
    toward [cfg.epochs]; the resumed trace (and hence the digest
    chain) is identical to the uninterrupted run's.

    [sink] receives every trace event (teed with the digest sink when
    [digest] is on) and is closed when the run finishes; warm-up events
    reach it even though they are excluded from the digest chain.
    [profile] is handed to {!Bgp.Network.create}.

    @raise Invalid_argument on an invalid configuration or a
    checkpoint fingerprint mismatch.
    @raise Checkpoint.Incompatible_version when resuming from a
    checkpoint written by another format version.
    @raise Checkpoint.Corrupt when resuming from a checkpoint whose
    payload fails its length or md5 check.
    @raise Failure on a file that is not a churn checkpoint, or a
    compaction invariant violation. *)

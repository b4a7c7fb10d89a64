(** Per-event-kind wall/virtual-time profiles for the dessim engine.

    Install with [Dessim.Engine.set_step_profiler eng (Profile.step p)],
    or pass the profile to [Bgp.Network.create ?profile], which every
    simulator does; events carry string tags attached at schedule
    time. *)

type kind_stats = {
  mutable count : int;
  mutable wall_total_s : float;
  mutable minor_words : float;
      (** words allocated on the minor heap by this tag's event
          actions, summed ({!Gc.minor_words} around each action) *)
  wall : Stats.Histogram.t;   (** wall time per event, 0..1ms, 10us buckets *)
  vtime : Stats.Histogram.t;  (** virtual time of execution, 0..100s *)
}

type t

val create : unit -> t

val step : t -> time:float -> tag:string option -> run:(unit -> unit) -> unit
(** Step-profiler callback for [Dessim.Engine.set_step_profiler]:
    times [run ()], counts the minor words it allocates and records
    both under [tag] (["untagged"] if [None]).  The probes themselves
    allocate nothing in native code, but the callback makes every event
    a little dearer, so install it only on runs being profiled. *)

val record :
  ?minor_words:float -> t -> tag:string -> time:float -> wall_s:float -> unit
(** Record one sample directly (used by tests); [minor_words]
    defaults to [0.]. *)

val merge_into : src:t -> dst:t -> unit
(** Accumulate [src] into [dst], words included; histograms share a
    fixed geometry so profiles from parallel workers always merge. *)

val kinds : t -> (string * kind_stats) list
(** Sorted by tag. *)

val pp : Format.formatter -> t -> unit
(** One row per tag: count, total wall seconds, mean µs and mean minor
    words per event. *)

(** Per-event-kind wall-time and allocation profiles for the dessim
    engine.

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
}

type t

val create : unit -> t

val step : t -> tag:string option -> run:(unit -> unit) -> unit
(** Step-profiler callback for [Dessim.Engine.set_step_profiler]:
    times [run ()], counts the minor words it allocates and records
    both under [tag] (["untagged"] if [None]).  The probes themselves
    allocate nothing in native code, but the callback makes every event
    a little dearer, so install it only on runs being profiled. *)

val record : ?minor_words:float -> t -> tag:string -> wall_s:float -> unit
(** Record one sample directly (used by tests); [minor_words]
    defaults to [0.]. *)

val merge_into : src:t -> dst:t -> unit
(** Accumulate [src]'s counts, wall totals and words into [dst]. *)

val kinds : t -> (string * kind_stats) list
(** Sorted by tag. *)

val pp : Format.formatter -> t -> unit
(** One row per tag: count, total wall seconds, mean µs and mean minor
    words per event. *)

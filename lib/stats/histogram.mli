(** Fixed-width bucket histograms, used for loop-size and loop-duration
    distributions in the per-loop analysis (the paper's stated future
    work, implemented as an extension here). *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** [create ~lo ~hi ~buckets] covers [\[lo, hi)] with [buckets]
    equal-width buckets.  Samples below [lo] land in the first bucket,
    samples at or above [hi] in the last.
    @raise Invalid_argument if [buckets <= 0] or [hi <= lo]. *)

val add : t -> float -> unit

val count : t -> int
(** Total number of samples added. *)

val bucket_count : t -> int -> int
(** [bucket_count t i] is the number of samples in bucket [i].
    @raise Invalid_argument if [i] is out of range. *)

val bucket_range : t -> int -> float * float
(** Bounds [(lo, hi)] of bucket [i]. *)

val to_list : t -> ((float * float) * int) list
(** All buckets with their bounds and counts, in order. *)

val pp : Format.formatter -> t -> unit
(** Renders non-empty buckets as one [lo..hi: count] line each. *)

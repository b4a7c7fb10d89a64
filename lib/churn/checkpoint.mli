(** Versioned checkpoints of a sustained-churn run.

    Checkpoints are taken only at drained epoch boundaries, where the
    whole simulation state is plain data (no engine events, no MRAI
    timers, no in-flight messages): speaker snapshots, the FIB mirror,
    the loop tracker, the RNG streams and the set of links currently
    down.  Restoring one and continuing reproduces the
    uninterrupted run bit-for-bit — the resume-equivalence tests
    compare golden trace digests across a kill/resume.

    On disk: the ASCII header ["bgpsim-churn-ckpt vN\n"] (N = {!version}),
    the payload's length (int64 little-endian) and md5, then the
    payload: one [Marshal]ed {!t}.  {!read} verifies the length and
    the md5 before unmarshalling.  Files are written atomically
    (temp + rename), so an interrupted write never corrupts the
    previous checkpoint.  The payload bytes are the memory layout of
    every record in {!t}, the loop tracker and the speaker snapshots
    included: a change to any of those layouts needs a {!version} bump
    (test_churn pins the bytes of one run).

    Version history: v1 chained digests over JSONL lines; v2 chains
    digests over {!Obs.Binary} frames; v3 follows {!Obs.Binary} format
    2; v4 adds the payload length and md5.  Chains across formats are
    unrelated, so {!read} refuses other versions with
    {!Incompatible_version} rather than continuing a broken chain. *)

exception
  Incompatible_version of { path : string; found : int; expected : int }
(** The file is a churn checkpoint, but from another format version.
    Structured (not a bare [Failure]) so callers can map it to a
    distinct exit code. *)

exception Corrupt of { path : string; reason : string }
(** The file has a current-version header, but its payload is
    truncated, padded or fails its md5.  Structured so callers can
    map it to a distinct exit code. *)

type t = {
  version : int;  (** format version; this module reads/writes {!version} *)
  fingerprint : string;
      (** digest of the run configuration (graph, seed, BGP config,
          workload); resuming under a different configuration is
          refused *)
  epoch : int;  (** completed epochs at the boundary *)
  vtime : float;  (** engine clock at the boundary *)
  events : int;  (** cumulative engine events executed *)
  chain : string;  (** rolling per-epoch trace digest chain (hex) *)
  idle_epochs : int;  (** consecutive epochs without a FIB change *)
  links_down : (int * int) array;  (** links down at the boundary *)
  speakers : Bgp.Speaker.snapshot array;
  fib : int option array;  (** next hop per node toward the prefix *)
  scan : Loopscan.Scanner.t;  (** loop tracker state *)
  rng_proc : Dessim.Rng.t;
  rng_workload : Dessim.Rng.t;
  rng_speakers : Dessim.Rng.t array;
  counters : Obs.Counters.snapshot;
      (** cumulative counters up to the boundary *)
}

val version : int

val path : dir:string -> epoch:int -> string
(** The canonical file name for a boundary checkpoint
    ([ckpt-NNNNNN.bin] under [dir]). *)

val write : dir:string -> t -> string
(** Atomically writes the checkpoint into [dir] and returns its path.
    @raise Sys_error on I/O failure. *)

val read : string -> t
(** @raise Failure on a missing, foreign, or truncated header.
    @raise Incompatible_version on a churn checkpoint from a different
    format version.
    @raise Corrupt when the payload's length or md5 does not match. *)

val latest : dir:string -> (int * string) option
(** The highest-epoch checkpoint in [dir], if any. *)

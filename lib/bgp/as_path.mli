(** AS paths, hash-consed.

    A path is the ordered list of ASes a route announcement has
    traversed, nearest first: the path [(5 6 4 0)] was announced by AS 5
    and originates at AS 0.  The head of a received path is therefore
    the advertising neighbor.  The empty path denotes a locally
    originated route (the origin's route to its own prefix).

    A value of type {!t} is an interned handle drawn from a {!Table.t}
    arena: one immutable int array per distinct path, plus a unique id,
    a precomputed structural hash and a 63-bit membership signature.
    Within one arena, structural equality coincides with physical
    equality, so {!equal} is O(1) on the hot paths (duplicate
    suppression, Loc-RIB comparison) and {!contains} answers most
    poison-reverse/SSLD queries from the signature without touching the
    array.  Simulations allocate one arena per run (see DESIGN.md §12);
    callers that pass no table use a per-domain default arena, which
    keeps the list-based API of earlier revisions working unchanged. *)

type t

(** Hash-consing arenas.  Id stability rules: the empty path has id 0
    in every arena; interned paths get ids 1, 2, ... in first-interning
    order, so a deterministic simulation assigns deterministic ids.
    Ids are never reused and never leak into traces or metrics. *)
module Table : sig
  type t

  val create : unit -> t

  val size : t -> int
  (** Number of distinct non-empty paths interned so far.  Never
      exceeds the number of distinct paths inserted (interning a path
      already present returns the existing handle). *)

  val words : t -> int
  (** Approximate heap words held by the interned paths (arrays plus
      handle records); an occupancy gauge for the scale benchmarks. *)
end

val default_table : unit -> Table.t
(** The calling domain's default arena (domain-local, so concurrent
    sweep workers never share one).  It lives for the domain's
    lifetime; long-running simulations should create their own. *)

val empty : t
(** The unique empty path, shared by all arenas. *)

val absent : t
(** "No path": the sentinel a slot-indexed RIB array holds where a
    neighbor has no entry, so that storing a path allocates no option.
    It is not a path.  No arena interns it, it is {!equal} only to
    itself, and callers test for it with [==].  Never hand it to
    {!reintern}, which would turn it into {!empty}. *)

val of_list : ?table:Table.t -> int list -> t
(** Interns the path into [table] (default: the domain's arena).
    @raise Invalid_argument if the list repeats an AS (AS paths are
    loop-free by construction: a repeated AS would have been discarded
    by poison reverse at that AS). *)

val to_list : t -> int list

val length : t -> int
(** O(1). *)

val is_empty : t -> bool

val contains : t -> int -> bool
(** O(1) for most misses (membership signature), O(length) otherwise. *)

val head : t -> int option
(** The advertising neighbor; [None] for the empty path. *)

val id : t -> int
(** The handle's arena-local id; see {!Table} for the stability rules. *)

val hash : t -> int
(** Precomputed structural hash, identical across arenas. *)

val prepend : ?table:Table.t -> int -> t -> t
(** [prepend v p] is the path AS [v] announces when its best route has
    path [p].  @raise Invalid_argument if [v] already appears in [p]. *)

val extend : table:Table.t -> int -> t -> t
(** {!prepend} with an explicit arena; consecutive extensions of the
    same path are memoized per arena ((parent id, AS) -> child), so the
    per-recompute announcement path costs one small hash lookup after
    the first decision that produced it. *)

val reintern : table:Table.t -> t -> t
(** The same path as a handle of [table]: returned unchanged when it
    already belongs to [table] (or is {!empty}), interned otherwise.
    This is the epoch-compaction primitive — live handles from a
    retiring arena are re-interned into a fresh one, and {!hash} /
    membership signatures carry over unchanged because both are
    arena-independent. *)

val suffix_from : ?table:Table.t -> t -> int -> t option
(** [suffix_from p u] is the sub-path of [p] starting at [u] (inclusive),
    or [None] when [u] does not appear in [p].  This is the sub-path the
    Assertion enhancement compares against [u]'s latest announcement.
    Returns [p] itself (no interning) when [u] is the head. *)

val compare : t -> t -> int
(** Total order: shorter first, then lexicographic on AS numbers.  Under
    the paper's shortest-path policy with lowest-ID tie-breaking this is
    exactly route preference (most preferred = smallest). *)

val compare_lex : t -> t -> int
(** Pure lexicographic order, ignoring length. *)

val equal : t -> t -> bool
(** O(1) within an arena; falls back to hash-then-array comparison for
    handles from different arenas (tests and tooling may mix them). *)

val pp : Format.formatter -> t -> unit
(** Paper style: [(5 6 4 0)]. *)

val to_string : t -> string

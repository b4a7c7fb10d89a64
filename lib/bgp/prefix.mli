(** Destination prefixes.

    The paper's experiments use a single destination attached to one
    AS; the library supports any number of prefixes, each identified by
    its origin AS and an index distinguishing multiple prefixes of the
    same origin. *)

type t = private { origin : int; index : int }

val make : ?index:int -> origin:int -> unit -> t
(** [index] defaults to [0].  @raise Invalid_argument on negative
    [origin] or [index]. *)

val origin : t -> int

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

(** Dense prefix-id interning (the {!As_path.Table} arena technique
    applied to prefixes).  A simulation shares one table across all of
    its speakers, so each prefix has a single id everywhere: ids index
    each speaker's destination array and key its per-peer MRAI
    limiters, and identify prefixes in per-prefix trace events. *)
module Table : sig
  type prefix = t

  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 16) pre-sizes the table.
      @raise Invalid_argument when [capacity <= 0]. *)

  val id : t -> prefix -> int
  (** The dense id of [prefix], interning it on first sight.  Ids are
      assigned [0, 1, 2, ...] in first-intern order. *)

  val find : t -> prefix -> int option
  (** Like {!id} but without interning. *)

  val prefix_of : t -> int -> prefix
  (** Inverse of {!id}.  @raise Invalid_argument on an unknown id. *)

  val size : t -> int

  val iter : (int -> prefix -> unit) -> t -> unit
  (** Iterate interned prefixes in id order. *)
end

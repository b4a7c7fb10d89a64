(** Minimal JSON tree, emitter and parser — the one writer behind
    [bgpsim-lint --json] and [bgpsim analyze --json], with no external
    dependency.  The emitter is deterministic; raw UTF-8 bytes in
    strings pass through both directions unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** an integral value below 1e15 prints as an integer ([%.0f]),
          any other finite value with [%.6g], and a non-finite one as
          [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** A number with a fraction or an exponent reads back as [Float],
    any other as [Int]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_str : t -> string option

val to_int : t -> int option

val to_list : t -> t list option

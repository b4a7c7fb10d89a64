(** Suppression comments and the committed allowlist.

    An in-source comment

    {v (* bgpsim-lint: allow D001 — reason *) v}

    suppresses findings of that rule on its own line and the following
    line.  An allowlist line

    {v D004 lib/stats/histogram.ml — reason v}

    suppresses the rule for a whole file.  Justifications are mandatory
    in both forms: entries without one are reported as config errors
    (exit code 2), never silently honored. *)

type t = { rule : Rule.t; line : int; reason : string }

type allow = { a_rule : Rule.t; a_file : string; a_justification : string }

val scan_file : string -> t list * string list
(** Parse every suppression comment in a source file.  Returns the
    valid suppressions and the config errors (malformed directives,
    missing justifications).  A missing file is a single error. *)

val scan_lines : file:string -> string list -> t list * string list
(** [scan_file] over in-memory lines; [file] labels errors. *)

val covers : t -> rule:Rule.t -> line:int -> bool

val parse_allowlist : string -> allow list * string list

val parse_allowlist_lines : file:string -> string list -> allow list * string list

val allow_covers : allow -> rule:Rule.t -> file:string -> bool

(** Report assembly: findings classified against suppression comments
    and the allowlist, rendered for humans or as [--json] output. *)

type status =
  | Open
  | Suppressed_comment of string  (** justification *)
  | Allowlisted of string  (** justification *)

type entry = { finding : Finding.t; status : status }

type t = {
  entries : entry list;  (** sorted by {!Finding.compare} *)
  config_errors : string list;
      (** malformed suppressions, missing justifications — exit 2 *)
  unused_suppressions : (string * int * Rule.t) list;
      (** informational: suppression comments matching no finding *)
  unused_allows : Suppress.allow list;
      (** informational: allowlist entries matching no finding, in
          allowlist order *)
}

val build :
  findings:Finding.t list ->
  scan_source:(string -> Suppress.t list * string list) ->
  allows:Suppress.allow list ->
  allow_errors:string list ->
  t
(** Classify [findings].  [scan_source] maps a finding's file to its
    suppression comments (typically {!Suppress.scan_file} composed
    with the source root); it is called once per distinct file. *)

val open_count : t -> int

val suppressed_count : t -> int

val exit_code : t -> int
(** 0 = clean, 1 = unsuppressed findings, 2 = config errors. *)

val pp : ?show_suppressed:bool -> Format.formatter -> t -> unit

val to_text : ?show_suppressed:bool -> t -> string

val schema : string
(** ["bgpsim-lint/1"]. *)

val to_json : t -> Json.t

val to_json_string : t -> string

val of_json_string : string -> (t, string) result
(** Inverse of {!to_json_string} up to [unused_suppressions] and
    [unused_allows] (not serialized).  Used by the schema round-trip
    tests. *)

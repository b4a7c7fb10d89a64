(** Combined static pre-flight: policy safety ({!Spvp}), scenario
    linting ({!Lint}) and convergence-bound derivation ({!Bounds}) in
    one pass, gated by a mode the experiment runner and the CLI expose.

    [Off] skips the analysis entirely; [Warn] has the CLI print the
    report but never blocks; [Strict] also makes the experiment runner
    raise {!Rejected} before the simulator schedules a single event
    when the instance is statically doomed — an [Unsafe] policy verdict
    or a scenario lint error. *)

type mode = Off | Warn | Strict

exception
  Rejected of {
    stage : string;  (** ["policy-safety"] or ["scenario-lint"] *)
    issues : string list;
  }

type report = {
  spvp : Spvp.t;
  lint : Lint.report option;  (** [None] when no scenario was supplied *)
  bounds : Bounds.t;
}

val analyze :
  ?max_paths:int ->
  ?gr_rel:(int -> int -> Bgp.Policy.relationship) ->
  ?scenario:Faults.Scenario.t ->
  ?clique:int ->
  ?certified_event:bool ->
  graph:Topo.Graph.t ->
  policy:Bgp.Policy.t ->
  origin:int ->
  mrai:float ->
  params:Netcore.Params.t ->
  unit ->
  report
(** [clique] enables the closed-form rank bound when enumeration blows
    its budget; [certified_event] marks a monotone T_down/T_up-style
    event (see {!Bounds.derive}).  The bounds assume one epoch per
    deterministic scenario step the linter analyzed (at least 1). *)

val blocking : report -> (string * string list) list
(** The stages that would make [Strict] reject, with their issues:
    an [Unsafe] verdict and/or lint [Error]s.  Empty = admissible. *)

val gate : report -> unit
(** What [Strict] does with a report.
    @raise Rejected when {!blocking} is non-empty (first blocking stage
    wins). *)

val mode_of_string : string -> (mode, string) result
(** ["off"] / ["warn"] / ["strict"]. *)

val mode_name : mode -> string

val to_json : report -> Json.t
(** Self-contained JSON object (verdict, witness cycle, lint issues,
    partitions, bounds) for CI artifacts. *)

val pp : Format.formatter -> report -> unit

(** Scripted fault-injection scenarios.

    A scenario is a declarative schedule of faults — link failures and
    recoveries, node crash/restart with RIB loss, BGP session resets,
    flap storms, correlated multi-link failure sets — plus probabilistic
    in-flight message chaos knobs (loss / duplication), everything
    expressed relative to the run's injection instant ([t_fail]).

    Scenarios are {e compiled} to a flat, time-sorted list of primitive
    {!step}s before a run: macros (storms, correlated sets, random
    failure draws) expand deterministically, with every random choice
    drawn from the run's seeded RNG stream — the same seed always yields
    the same schedule.  The simulation runner
    ({!Bgp.Routing_sim.run}) then schedules each step on the
    discrete-event queue. *)

type link = int * int
(** Endpoints of an undirected link; orientation is irrelevant. *)

(** Primitive fault, the unit the runner executes. *)
type action =
  | Link_fail of link  (** link + both BGP sessions over it go down *)
  | Link_recover of link  (** link and sessions come back *)
  | Node_crash of int
      (** the node stops processing, loses all RIB state, and every
          session to it drops (links stay up) *)
  | Node_restart of int
      (** the node comes back empty-handed; sessions over up links
          re-establish and peers dump their tables; a crashed origin
          re-originates its prefix *)
  | Session_reset of link
      (** both sessions over the (up) link flap instantaneously: RIBs
          learned across it flush and both ends re-dump *)

type step = { at : float; action : action }
(** [at] is seconds after the injection instant. *)

(** Declarative scenario clause; macros expand at compile time. *)
type spec =
  | At of float * action
  | Flap_storm of { link : link; start : float; period : float; count : int }
      (** [count] fail/recover cycles: cycle [k] fails at
          [start + k * period] and recovers half a period later *)
  | Correlated_failure of {
      at : float;
      links : link list;
      recover_after : float option;
    }
      (** a shared-risk group: every link fails at the same instant
          (and, if [recover_after] is given, recovers together) *)
  | Random_link_failures of {
      count : int;
      window : float;
      recover_after : float option;
    }
      (** [count] distinct links drawn from the graph by the seeded
          RNG, each failing at an RNG-uniform time in [\[0, window)] *)

type t = {
  name : string option;
  specs : spec list;
  msg_loss : float;
      (** probability each in-flight message is silently lost *)
  msg_dup : float;
      (** probability each in-flight message is delivered twice *)
}

val make : ?name:string -> ?msg_loss:float -> ?msg_dup:float -> spec list -> t
(** @raise Invalid_argument if a chaos probability is outside [\[0, 1]]. *)

val name : t -> string
(** The explicit name, or the {!to_string} rendering. *)

val max_storm_count : int
(** [100_000]: the largest storm count a scenario resolves with.  A
    storm expands to two steps per cycle, so the cap bounds what
    {!compile} allocates. *)

val resolution_issues : t -> graph:Topo.Graph.t -> string list
(** Static resolution of the scenario against a concrete topology:
    every referenced link must be a graph edge (with in-range
    endpoints), every node id in range, times finite and nonnegative,
    storm periods positive, storm counts in [1, max_storm_count],
    random draws not larger than the edge set.
    Returns {e all} problems (empty list = valid) — the static
    pre-flight linter builds on this, and {!validate} raises on the
    first entry. *)

val validate : t -> graph:Topo.Graph.t -> unit
(** Raises on the first of {!resolution_issues}, so a scenario
    referencing nodes or links absent from the topology is rejected at
    compile time rather than silently accepted.
    @raise Invalid_argument on any resolution issue. *)

val expand_deterministic : t -> step list * int
(** The time-sorted expansion of every deterministic clause (everything
    except [Random_link_failures], whose expansion draws from the run
    RNG), plus the count of random clauses left unexpanded.  Used by
    the static linter; does {e not} validate. *)

val compile : t -> graph:Topo.Graph.t -> rng:Dessim.Rng.t -> step list
(** Validates, expands every macro and sorts by time (stable: clauses
    declared earlier fire first at equal times).  All randomness comes
    from [rng]. *)

val of_string : string -> (t, string) result
(** Parses the scenario mini-grammar: semicolon-separated clauses

    {v
    fail@T:a-b        recover@T:a-b      reset@T:a-b
    crash@T:n         restart@T:n
    storm@T:a-b,PERIOD,COUNT
    corr@T:a-b+c-d[,RECOVER]
    rand@COUNT:WINDOW[,RECOVER]
    loss=P            dup=P
    v}

    e.g. ["storm@0:0-1,5,200;loss=0.01"]. *)

val to_string : t -> string
(** Renders back to the {!of_string} grammar (chaos knobs last). *)

val pp : Format.formatter -> t -> unit

(** Sustained-churn workload generation.

    Produces one epoch of scripted faults at a time: paired link
    fail/recover flaps, BGP session resets and origin prefix flaps
    (the paper's [T_down]/[T_up] pair), built on the faults DSL
    ({!Faults.Scenario}) and compiled against the concrete topology.

    The schedule is a deterministic function of the parameters, the
    graph and the RNG state — a fixed draw order means checkpointing
    the RNG reproduces the exact post-resume schedule. *)

type t

val make : ?epoch_len:float -> ?flap_rate:float -> unit -> t
(** [epoch_len] (default 300 virtual seconds) spreads each epoch's
    events over [\[0, 0.7·len)] with every paired recovery by
    [0.9·len], leaving settle time before the boundary.  [flap_rate]
    (default 4) is the Poisson mean number of churn events per epoch.
    @raise Invalid_argument unless [epoch_len] is finite and positive
    and [flap_rate] lies in [\[0, 100]] (NaN does not). *)

val epoch_len : t -> float
val flap_rate : t -> float

type action =
  | Fault of Faults.Scenario.action
  | Origin_down  (** origin withdraws its prefix *)
  | Origin_up  (** origin (re-)announces its prefix *)

type step = { at : float; action : action }
(** [at] is seconds after the epoch start. *)

val generate : t -> graph:Topo.Graph.t -> rng:Dessim.Rng.t -> step list
(** One epoch's schedule, sorted by time.
    @raise Invalid_argument if the graph has no edges. *)

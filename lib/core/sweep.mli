(** Parameter sweeps with multi-seed averaging — the shape of every
    figure in the paper: a metric series against network size, MRAI
    value, or enhancement.

    {b Parallelism.} Every sweep takes [?jobs] (default 1) and runs its
    whole batch of (spec, seed) runs through {!Parallel.run}.  Each run
    owns its engine and seeded RNG streams, and results are gathered in
    submission order, so a parallel sweep returns the same metrics and
    the same failure order as the sequential one — only the
    [wall_clock_s] timing field differs.  With [jobs <= 1] the sweep
    runs sequentially in the calling domain. *)

val over_seeds :
  ?jobs:int ->
  Experiment.spec ->
  seeds:int list ->
  Metrics.Run_metrics.t
(** Mean metrics over re-runs of [spec] with each seed (the paper's
    "simulations were repeated a number of times with different
    destination ASes and failed links").
    @raise Invalid_argument on an empty seed list. *)

val series :
  ?jobs:int ->
  make:('x -> Experiment.spec) ->
  seeds:int list ->
  'x list ->
  ('x * Metrics.Run_metrics.t) list
(** One averaged data point per sweep value.  The whole
    [(x, seed)] cross product is submitted as one batch, so
    parallelism is not throttled by the per-point seed count.
    @raise Invalid_argument on an empty seed list. *)

val linearity :
  ('x * Metrics.Run_metrics.t) list ->
  x:('x -> float) ->
  y:(Metrics.Run_metrics.t -> float) ->
  Stats.Linear_fit.t
(** Least-squares check of the paper's "linearly proportional"
    observations over a sweep. *)

(** {2 Error-isolating sweeps}

    A large batch must survive individual bad runs: a mis-specified
    scenario, a strict-mode invariant violation or any other exception
    in one (spec, seed) pair is recorded and the batch keeps going,
    instead of one run aborting hours of sweep. *)

type run_failure = {
  seed : int;
  scenario : string;  (** "topology/event" of the failing spec *)
  message : string;  (** [Printexc.to_string] of the escaped exception *)
}

type robust = {
  metrics : Metrics.Run_metrics.t option;
      (** mean over the completed runs; [None] if every run failed *)
  attempted : int;
  completed : int;
  non_converged : int;
      (** completed runs that hit an event/virtual-time budget (still
          averaged into [metrics], flagged so the reader can discount
          them) *)
  rejected : run_failure list;
      (** runs skipped by a [Strict] pre-flight
          ({!Analysis.Preflight.Rejected}): the analyzer predicted the
          instance was doomed, so no simulation was attempted — an
          expected outcome, kept apart from [failures] *)
  failures : run_failure list;
}

val robust_of_results :
  Experiment.spec ->
  seeds:int list ->
  (Metrics.Run_metrics.t, exn) result list ->
  robust
(** The summary behind {!over_seeds_robust} and {!series_robust}: one
    {!Parallel.run} result per seed of [spec], in seed order, folded into
    a {!robust}.  A strict pre-flight's {!Analysis.Preflight.Rejected}
    counts as [rejected], any other exception as a failure.  Exposed
    for callers that build their own per-seed thunks. *)

val over_seeds_robust :
  ?jobs:int ->
  Experiment.spec ->
  seeds:int list ->
  robust
(** Like {!over_seeds}, but exceptions are isolated per run.
    [failures] keeps seed order even under parallelism.
    @raise Invalid_argument on an empty seed list. *)

val series_robust :
  ?jobs:int ->
  make:('x -> Experiment.spec) ->
  seeds:int list ->
  'x list ->
  ('x * robust) list

val failures_table : run_failure list -> string
(** {!Report.table} rendering of the failed runs (seed, scenario,
    error). *)

(** Parameter sweeps with multi-seed averaging — the shape of every
    figure in the paper: a metric series against network size, MRAI
    value, or enhancement.

    {b Parallelism.} Every sweep accepts [?pool] (a caller-managed
    {!Parallel.t}, reused across sweeps) or [?jobs] (a temporary pool
    torn down when the sweep returns).  Each (spec, seed) run owns its
    engine and seeded RNG streams, and results are gathered in
    submission order, so a parallel sweep returns the same metrics and
    the same failure order as the sequential one — only the
    [wall_clock_s] timing field differs.  With neither option (or
    [jobs <= 1]) the sweep runs sequentially in the calling domain.

    {b Dispatch-overhead fallback.}  A temporary [?jobs] pool costs one
    domain spawn per worker, which can exceed the whole batch for
    micro-runs (tiny topologies in test sweeps).  So the [?jobs] path
    first runs one probe thunk in the calling domain: if it finishes
    below {!dispatch_overhead_s}, the rest of the batch stays
    sequential and no pool is ever spawned.  A caller-supplied [?pool]
    is never second-guessed — its spawn cost is already sunk.  The
    [?on_dispatch] callback reports which path ran (the regression-test
    hook; see test/test_parallel.ml). *)

(** How a sweep batch was actually executed. *)
type dispatch =
  | Sequential  (** no pool and no [jobs > 1] requested *)
  | Pool of { jobs : int }  (** caller-supplied pool, used as-is *)
  | Probed_pool of { jobs : int; probe_s : float }
      (** probe ran for [probe_s] >= {!dispatch_overhead_s}: a
          temporary pool was spawned for the remaining thunks *)
  | Probed_sequential of { probe_s : float }
      (** probe finished under the threshold (or was the whole batch):
          everything ran in the calling domain *)

val dispatch_overhead_s : float
(** Per-run wall-time threshold (1 ms) under which a temporary pool
    costs more than it saves. *)

val run_batch :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  (unit -> 'a) list ->
  ('a, exn) result list
(** The substrate every sweep bottoms out in: execute the thunks
    (through [pool], a probed temporary [jobs]-pool, or sequentially)
    and gather per-thunk results in submission order.  Exposed for
    callers composing their own batches — and for the fallback
    regression test. *)

val over_seeds :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  Experiment.spec ->
  seeds:int list ->
  Metrics.Run_metrics.t
(** Mean metrics over re-runs of [spec] with each seed (the paper's
    "simulations were repeated a number of times with different
    destination ASes and failed links").
    @raise Invalid_argument on an empty seed list. *)

val series :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  make:('x -> Experiment.spec) ->
  seeds:int list ->
  'x list ->
  ('x * Metrics.Run_metrics.t) list
(** One averaged data point per sweep value.  The whole
    [(x, seed)] cross product is submitted to the pool at once, so
    parallelism is not throttled by the per-point seed count.
    @raise Invalid_argument on an empty seed list. *)

val default_seeds : int list
(** Seeds 1–5. *)

val over_seeds_summary :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  Experiment.spec ->
  seeds:int list ->
  metric:(Metrics.Run_metrics.t -> float) ->
  Stats.Descriptive.summary
(** Dispersion of one metric across seeds (mean, sd, min/median/max) —
    for reporting run-to-run variance alongside the mean, e.g. on the
    high-variance Internet [T_long] scenarios.
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
    {!run_batch} result per seed of [spec], in seed order, folded into
    a {!robust}.  A strict pre-flight's {!Analysis.Preflight.Rejected}
    counts as [rejected], any other exception as a failure.  Exposed
    for callers that build their own per-seed thunks. *)

val over_seeds_robust :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  Experiment.spec ->
  seeds:int list ->
  robust
(** Like {!over_seeds}, but exceptions are isolated per run.
    [failures] keeps seed order even under parallelism.
    @raise Invalid_argument on an empty seed list. *)

val series_robust :
  ?on_dispatch:(dispatch -> unit) ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  make:('x -> Experiment.spec) ->
  seeds:int list ->
  'x list ->
  ('x * robust) list

val failures_table : run_failure list -> string
(** {!Report.table} rendering of the failed runs (seed, scenario,
    error). *)

(* Tests for Parallel.run and the parallel sweep paths: ordered gather,
   sequential/parallel equivalence (including failure order), each
   thunk run exactly once, and RNG hygiene.  Runs compare with
   [wall_clock_s] zeroed out — it is the one field documented to differ
   between sequential and parallel runs. *)

open Bgpsim

let strip (m : Metrics.Run_metrics.t) = { m with wall_clock_s = 0. }

let strip_robust (r : Sweep.robust) =
  { r with Sweep.metrics = Option.map strip r.metrics }

(* --- the runner --- *)

let test_run_preserves_order () =
  let results = Parallel.run ~jobs:4 (List.init 20 (fun i () -> i * i)) in
  Alcotest.(check (list int))
    "squares in submission order"
    (List.init 20 (fun i -> i * i))
    (List.map Result.get_ok results)

let test_map_matches_sequential () =
  let xs = List.init 15 (fun i -> i) in
  let f x = (x * 7919) mod 997 in
  let seq = List.map f xs in
  let par =
    Parallel.run ~jobs:3 (List.map (fun x () -> f x) xs)
    |> List.map Result.get_ok
  in
  Alcotest.(check (list int)) "map ordering" seq par

let test_jobs_clamped () =
  let caller = Domain.self () in
  let ran_in =
    Parallel.run ~jobs:0 (List.init 3 (fun _ () -> Domain.self ()))
  in
  Alcotest.(check bool) "jobs 0 runs every thunk in the caller" true
    (List.for_all (fun r -> Result.get_ok r = caller) ran_in);
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Parallel.run: negative jobs") (fun () ->
      ignore (Parallel.run ~jobs:(-1) [ (fun () -> 1) ]))

let test_exception_isolated () =
  let results =
    Parallel.run ~jobs:2
      [
        (fun () -> 1);
        (fun () -> failwith "boom");
        (fun () -> 3);
      ]
  in
  match results with
  | [ Ok 1; Error (Failure msg); Ok 3 ] when msg = "boom" -> ()
  | _ -> Alcotest.fail "expected [Ok 1; Error boom; Ok 3]"

(* thunk i of 6 sleeps (6 - i) ms, so the later thunks tend to finish
   first; the outcomes still come back in submission order *)
let test_out_of_order_completion () =
  let thunk i () =
    Unix.sleepf (float_of_int (6 - i) *. 1e-3);
    i
  in
  Alcotest.(check (list int))
    "submission order" [ 0; 1; 2; 3; 4; 5 ]
    (Parallel.run ~jobs:3 (List.init 6 thunk) |> List.map Result.get_ok)

let test_batch_shorter_than_jobs () =
  let calls = Array.init 3 (fun _ -> Atomic.make 0) in
  let results =
    Parallel.run ~jobs:8
      (List.init 3 (fun i () ->
           Atomic.incr calls.(i);
           i))
  in
  Alcotest.(check (list int))
    "three results, in order" [ 0; 1; 2 ]
    (List.map Result.get_ok results);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "thunk %d ran once" i) 1
        (Atomic.get c))
    calls

(* --- RNG hygiene --- *)

(* A seeded run draws only from its own Dessim.Rng streams, never from
   the domain's global [Random] state, whose draws would depend on
   scheduling (DESIGN.md §9; bgpsim-lint D003 checks the same
   statically).  The snapshots are taken inside each thunk:
   [Domain.spawn] splits the parent's global state, so snapshots taken
   around the whole batch can differ with no run drawing at all. *)
let moves_global_random f () =
  let before = Random.get_state () in
  let v = f () in
  (v, Stdlib.compare before (Random.get_state ()) <> 0)

let test_rng_hygiene_passes_simulation () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let converged seed () = (Experiment.metrics { spec with seed }).converged in
  List.iter
    (fun jobs ->
      (* the first thunk draws on purpose: the check must see it *)
      let draw () = Random.bits () >= 0 in
      match
        Parallel.run ~jobs
          (List.map moves_global_random
             [ draw; converged 1; converged 2; converged 3 ])
      with
      | Ok (_, drew) :: runs ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d: a global draw is seen" jobs)
            true drew;
          List.iteri
            (fun i r ->
              let seed = i + 1 in
              match r with
              | Ok (ok, moved) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "jobs %d: seed %d converged" jobs seed)
                    true ok;
                  Alcotest.(check bool)
                    (Printf.sprintf "jobs %d: seed %d leaves Random alone"
                       jobs seed)
                    false moved
              | Error exn -> Alcotest.fail (Printexc.to_string exn))
            runs
      | _ -> Alcotest.fail "expected the control thunk to complete")
    [ 1; 2 ]

(* --- sweep equivalence --- *)

let clique_sweep ?jobs () =
  Sweep.series ?jobs
    ~make:(fun n -> Experiment.default_spec (Experiment.Clique n))
    ~seeds:[ 1; 2; 3 ]
    [ 5; 10 ]

let test_series_deterministic_across_jobs () =
  let norm series = List.map (fun (x, m) -> (x, strip m)) series in
  let seq = norm (clique_sweep ()) in
  List.iter
    (fun jobs ->
      let par = norm (clique_sweep ~jobs ()) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical to sequential" jobs)
        true (seq = par))
    [ 1; 2; 4 ]

let test_series_robust_parallel_equals_sequential () =
  (* mixed batch: sizes 4 and 6 run fine, origin 99 on a 5-node custom
     graph raises in every seed — the robust sweep must record those
     failures in seed order and still average the good runs, with the
     parallel run byte-identical to the sequential one *)
  let make = function
    | `Good n -> { (Experiment.default_spec (Experiment.Clique n)) with mrai = 5. }
    | `Bad ->
        Experiment.default_spec
          (Experiment.Custom
             { graph = Topo.Generators.clique 5; origin = 99; name = "bad" })
  in
  let xs = [ `Good 4; `Bad; `Good 6 ] in
  let seeds = [ 1; 2; 3 ] in
  let norm series = List.map (fun (x, r) -> (x, strip_robust r)) series in
  let seq = norm (Sweep.series_robust ~make ~seeds xs) in
  let par = norm (Sweep.series_robust ~jobs:4 ~make ~seeds xs) in
  Alcotest.(check bool) "parallel equals sequential" true (seq = par);
  (* sanity on the sequential shape itself *)
  (match List.assoc `Bad seq with
  | { Sweep.metrics = None; attempted = 3; completed = 0; failures; _ } ->
      Alcotest.(check (list int)) "failure seeds in order" [ 1; 2; 3 ]
        (List.map (fun (f : Sweep.run_failure) -> f.seed) failures);
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun (f : Sweep.run_failure) ->
          Alcotest.(check bool) "message names the origin check" true
            (contains f.message "origin out of range"))
        failures
  | _ -> Alcotest.fail "bad point should fail all three seeds");
  match List.assoc (`Good 4) seq with
  | { Sweep.metrics = Some m; completed = 3; failures = []; _ } ->
      Alcotest.(check bool) "good point averaged" true m.converged
  | _ -> Alcotest.fail "good point should complete all seeds"

let test_over_seeds_robust_parallel () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 6)) with mrai = 5. }
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let seq = strip_robust (Sweep.over_seeds_robust spec ~seeds) in
  let par = strip_robust (Sweep.over_seeds_robust ~jobs:3 spec ~seeds) in
  Alcotest.(check bool) "jobs 3 over_seeds_robust identical" true (seq = par)

(* --- trace determinism --- *)

let test_trace_digests_identical_across_jobs () =
  (* each domain runs a fixture with its own memory-sink bus; the
     resulting digests must not depend on the domain count or on
     scheduling *)
  let digests jobs =
    Parallel.run ~jobs
      (List.map (fun f () -> Golden.digest f) Golden.fixtures)
    |> List.map Result.get_ok
  in
  let seq = digests 1 in
  Alcotest.(check int) "one digest per fixture"
    (List.length Golden.fixtures) (List.length seq);
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d digests identical" jobs)
        seq (digests jobs))
    [ 2; 4 ]

let test_counter_snapshots_merge_across_workers () =
  (* the parallel merge must equal a sequential fold over the same runs *)
  let specs =
    List.map
      (fun seed ->
        { (Experiment.default_spec (Experiment.Clique 5)) with seed })
      [ 1; 2; 3; 4 ]
  in
  let counted spec =
    let c = Obs.Counters.create () in
    let obs = Obs.Bus.create ~counters:c () in
    let (_ : Experiment.run) = Experiment.run ~obs spec in
    Obs.Counters.snapshot c
  in
  let merge_all = function
    | [] -> Alcotest.fail "no snapshots"
    | s :: rest -> List.fold_left Obs.Counters.merge s rest
  in
  let seq = merge_all (List.map counted specs) in
  let par =
    merge_all
      (Parallel.run ~jobs:4 (List.map (fun spec () -> counted spec) specs)
      |> List.map Result.get_ok)
  in
  Alcotest.(check int) "updates sent" seq.s_updates_sent par.s_updates_sent;
  Alcotest.(check int) "fib changes" seq.s_fib_changes par.s_fib_changes;
  Alcotest.(check int) "engine events" seq.s_events_executed
    par.s_events_executed

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          tc "run preserves order" test_run_preserves_order;
          tc "map matches sequential" test_map_matches_sequential;
          tc "jobs clamped" test_jobs_clamped;
          tc "exception isolated" test_exception_isolated;
        ] );
      ( "runner edge cases",
        [
          tc "completion out of order" test_out_of_order_completion;
          tc "batch shorter than jobs" test_batch_shorter_than_jobs;
        ] );
      ( "rng-hygiene",
        [ tc "simulation runs clean" test_rng_hygiene_passes_simulation ] );
      ( "sweep",
        [
          tc "series deterministic across jobs" test_series_deterministic_across_jobs;
          tc "series_robust parallel = sequential"
            test_series_robust_parallel_equals_sequential;
          tc "over_seeds_robust across jobs" test_over_seeds_robust_parallel;
        ] );
      ( "observability",
        [
          tc "trace digests identical across jobs"
            test_trace_digests_identical_across_jobs;
          tc "counter snapshots merge across workers"
            test_counter_snapshots_merge_across_workers;
        ] );
    ]

(* The bgpsim benchmark.

     perfbench.exe --workload paper-figures --seed 1 --seconds 30 --trace 0

   runs one workload in this process and prints a human-readable report
   followed by one JSON result line.  --trace 0 reports the end-to-end
   metrics, --trace 1 the per-layer ones.  --record prints the outcome
   digests of the default seed in the format of expected.txt;
   --self-test checks the helpers.  run.py builds this program and is
   the usual entry point. *)

let workloads =
  [
    ("paper-figures", Paper_figures.run);
    ("mesh-churn", Mesh_churn.run);
    ("churn-service", Churn_service.run);
  ]

let say fmt = Printf.printf (fmt ^^ "\n%!")

let report ~workload ~seed ~traced (r : Measure.t) =
  let n = List.length r.steps in
  let p50, tail, p = Helpers.summarize ~cap:r.tail_cap r.steps in
  say "workload %s, seed %d, %s run" workload seed
    (if traced then "traced" else "untraced");
  say "set-up %.4f s (median of %d)" r.setup_s Measure.setup_reps;
  say "timed section %.3f s: %d steps, %d events" r.wall_s n r.events;
  say "step latency p50 %.3f ms, %s %.3f ms (%d samples)" (p50 *. 1e3)
    (match p with
    | Some p -> Printf.sprintf "p%g" (p *. 100.)
    | None -> "max")
    (tail *. 1e3) n;
  say "failed_share %g (%d of %d attempted)"
    (float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  List.iter
    (fun (name, ok) -> say "check %-60s %s" name (if ok then "ok" else "FAILED"))
    r.checks;
  say "outcome-digest %s" r.digest;
  let t = Unix.times () in
  say "process cpu %.3f s" (t.Unix.tms_utime +. t.Unix.tms_stime)

let result_line ~traced (r : Measure.t) =
  let catalogue, values =
    if traced then (Measure.per_layer, Measure.per_layer_values r)
    else (Measure.end_to_end, Measure.end_to_end_values r)
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
        { Helpers.name; unit_; value = List.assoc name values })
      catalogue
  in
  List.iter
    (fun (m : Helpers.metric) -> say "%-36s %16.6g %s" m.name m.value m.unit_)
    metrics;
  (* JSON has no NaN or infinity: such a value is written as 0 and the
     run is not correct *)
  let finite (m : Helpers.metric) = Float.is_finite m.value in
  let correct =
    List.for_all finite metrics && r.failed = 0 && List.for_all snd r.checks
  in
  let metrics =
    List.map
      (fun (m : Helpers.metric) -> if finite m then m else { m with value = 0. })
      metrics
  in
  Helpers.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics

(* Outcome digests for the default seed: every grid cell, the first
   steps and horizons, and the canaries. *)
let record () =
  let module E = Bgpsim.Experiment in
  List.iter
    (fun s ->
      let s = { s with E.seed = 1 } in
      say "%s %s" (Paper_figures.key s)
        (Helpers.metrics_digest (E.run s).metrics))
    Paper_figures.grid;
  say "%s %s" Mesh_churn.canary_key
    (Mesh_churn.outcome_digest
       (Mesh_churn.simulate (Mesh_churn.canary_config ()) ~seed:1));
  let c = Mesh_churn.config ~graph_seed:1 ~n:110 ~flappers:30 ~cycles:20 in
  for k = 0 to 7 do
    say "%s %s" (Mesh_churn.step_key k)
      (Mesh_churn.outcome_digest
         (Mesh_churn.simulate c ~seed:(Mesh_churn.step_seed ~seed:1 k)))
  done;
  let graph = Topo.Internet.generate ~seed:1 110 in
  let origin = Churn_service.origin_of graph in
  say "%s %s" Churn_service.canary_key
    (Churn_service.chain
       (Churn.Driver.run
          (Churn_service.cfg ~graph ~origin ~seed:1
             ~target_events:Churn_service.canary_events ())));
  for k = 0 to 23 do
    say "%s %s" (Churn_service.horizon_key k)
      (Churn_service.chain
         (Churn.Driver.run
            (Churn_service.cfg ~graph ~origin
               ~seed:(Churn_service.step_seed ~seed:1 k)
               ~target_events:Churn_service.horizon_events ())))
  done

let self_test () =
  let failures = ref 0 in
  let expect name ok =
    if not ok then begin
      incr failures;
      say "self-test FAILED: %s" name
    end
  in
  let open Helpers in
  expect "no percentile below 20 samples" (tail_percentile ~cap:0.99 19 = None);
  expect "p50 from 20 samples" (tail_percentile ~cap:0.99 20 = Some 0.5);
  expect "p50 at 99 samples" (tail_percentile ~cap:0.99 99 = Some 0.5);
  expect "p90 from 100 samples" (tail_percentile ~cap:0.99 100 = Some 0.9);
  expect "p90 at 999 samples" (tail_percentile ~cap:0.99 999 = Some 0.9);
  expect "p99 from 1000 samples" (tail_percentile ~cap:0.99 1000 = Some 0.99);
  expect "cap holds p90" (tail_percentile ~cap:0.9 5000 = Some 0.9);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let p50, tail, _ = summarize ~cap:0.99 xs in
  expect "p50 of 1..100 is 50" (p50 = 50.);
  expect "p90 of 1..100 is 90, ten beyond" (tail = 90.);
  let _, tail, _ = summarize ~cap:0.9 [ 3.; 1.; 2. ] in
  expect "maximum below 20 samples" (tail = 3.);
  expect "median of even count" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  List.iter
    (fun n -> expect ("valid name " ^ n) (valid_name n))
    ([ "setup_s"; "a"; "9x"; "bgp.decision_runs"; "obs.binary-encode_ns" ]
    @ List.map fst Measure.end_to_end
    @ List.map fst Measure.per_layer);
  List.iter
    (fun n -> expect (Printf.sprintf "invalid name %S" n) (not (valid_name n)))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "µs"; "x\""; String.make 65 'a' ];
  expect "the grid stride visits every cell once"
    (List.length (List.sort_uniq compare Paper_figures.grid)
    = List.length Paper_figures.figure_cells);
  expect "names are unique"
    (let names = List.map fst (Measure.end_to_end @ Measure.per_layer) in
     List.length (List.sort_uniq String.compare names) = List.length names);
  if !failures = 0 then say "self-test ok";
  !failures = 0

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--expected FILE]\n\
    \       perfbench.exe --record | --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--record" ] -> record ()
  | [ "--self-test" ] -> exit (if self_test () then 0 else 1)
  | _ ->
      let rec parse acc = function
        | [] -> acc
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
          ->
            parse ((flag, v) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get flag = List.assoc_opt flag opts in
      let int flag =
        match Option.bind (get flag) int_of_string_opt with
        | Some v -> v
        | None -> usage ()
      in
      let workload = Option.value (get "--workload") ~default:"" in
      let run =
        match List.assoc_opt workload workloads with
        | Some run -> run
        | None -> usage ()
      in
      let seed = int "--seed" and seconds = int "--seconds" in
      let traced =
        match get "--trace" with
        | Some "0" -> false
        | Some "1" -> true
        | _ -> usage ()
      in
      let expected =
        Helpers.load_expected
          (Option.value (get "--expected") ~default:"perfbench/expected.txt")
      in
      if seconds < 1 then usage ();
      let r = run ~seed ~seconds:(float_of_int seconds) ~traced ~expected in
      report ~workload ~seed ~traced r;
      print_endline (result_line ~traced r)

let reraise = function Ok v -> v | Error exn -> raise exn

(* [chunk k xs] splits [xs] into consecutive groups of [k] — the
   inverse of the cross-product flattening done by the series sweeps. *)
let chunk k xs =
  let rec take acc k xs =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> invalid_arg "Sweep.chunk: ragged input"
      | x :: rest -> take (x :: acc) (k - 1) rest
  in
  let rec go acc xs =
    match xs with
    | [] -> List.rev acc
    | _ ->
        let group, rest = take [] k xs in
        go (group :: acc) rest
  in
  go [] xs

let over_seeds ?(jobs = 1) spec ~seeds =
  if seeds = [] then invalid_arg "Sweep.over_seeds: empty seed list";
  Parallel.run ~jobs
    (List.map (fun seed () -> Experiment.metrics { spec with seed }) seeds)
  |> List.map reraise
  |> Metrics.Run_metrics.mean

let series ?(jobs = 1) ~make ~seeds xs =
  if seeds = [] then invalid_arg "Sweep.series: empty seed list";
  (* flatten the (x, seed) cross product so the domains see every run
     at once instead of one x's seeds at a time *)
  let runs =
    List.concat_map
      (fun x ->
        List.map
          (fun seed () -> Experiment.metrics { (make x) with Experiment.seed = seed })
          seeds)
      xs
  in
  Parallel.run ~jobs runs
  |> List.map reraise
  |> chunk (List.length seeds)
  |> List.map2 (fun x ms -> (x, Metrics.Run_metrics.mean ms)) xs

let linearity points ~x ~y =
  Stats.Linear_fit.fit
    (Array.of_list (List.map (fun (px, m) -> (x px, y m)) points))

(* --- error-isolating sweeps --- *)

type run_failure = { seed : int; scenario : string; message : string }

type robust = {
  metrics : Metrics.Run_metrics.t option;
  attempted : int;
  completed : int;
  non_converged : int;
  rejected : run_failure list;
  failures : run_failure list;
}

let describe_spec (spec : Experiment.spec) =
  Printf.sprintf "%s/%s"
    (Experiment.topology_name spec.topology)
    (Experiment.event_name spec.event)

let robust_of_results spec ~seeds results =
  let results =
    List.map2
      (fun seed -> function
        | Ok m -> Ok m
        | Error exn ->
            let failure message =
              { seed; scenario = describe_spec { spec with Experiment.seed }; message }
            in
            (* a strict pre-flight rejection is an expected, statically
               predicted outcome — tallied apart from genuine failures *)
            (match exn with
            | Analysis.Preflight.Rejected { stage; issues } ->
                Error
                  (`Rejected
                     (failure
                        (Printf.sprintf "pre-flight %s: %s" stage
                           (String.concat "; " issues))))
            | exn -> Error (`Failed (failure (Printexc.to_string exn)))))
      seeds results
  in
  let ok = List.filter_map Result.to_option results in
  {
    metrics = (if ok = [] then None else Some (Metrics.Run_metrics.mean ok));
    attempted = List.length seeds;
    completed = List.length ok;
    non_converged =
      List.length
        (List.filter (fun (m : Metrics.Run_metrics.t) -> not m.converged) ok);
    rejected =
      List.filter_map
        (function Error (`Rejected f) -> Some f | _ -> None)
        results;
    failures =
      List.filter_map
        (function Error (`Failed f) -> Some f | _ -> None)
        results;
  }

let robust_thunks spec ~seeds =
  List.map
    (fun seed () ->
      (Experiment.run { spec with Experiment.seed }).Experiment.metrics)
    seeds

let over_seeds_robust ?(jobs = 1) spec ~seeds =
  if seeds = [] then invalid_arg "Sweep.over_seeds_robust: empty seed list";
  Parallel.run ~jobs (robust_thunks spec ~seeds)
  |> robust_of_results spec ~seeds

let series_robust ?(jobs = 1) ~make ~seeds xs =
  if seeds = [] then invalid_arg "Sweep.series_robust: empty seed list";
  let specs = List.map make xs in
  let runs = List.concat_map (robust_thunks ~seeds) specs in
  Parallel.run ~jobs runs
  |> chunk (List.length seeds)
  |> List.map2
       (fun (x, spec) results -> (x, robust_of_results spec ~seeds results))
       (List.combine xs specs)

let failures_table failures =
  Report.table ~title:"failed runs"
    ~header:[ "seed"; "scenario"; "error" ]
    ~rows:
      (List.map
         (fun f -> [ string_of_int f.seed; f.scenario; f.message ])
         failures)

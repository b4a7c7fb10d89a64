(* bgpsim — command-line front end.

   Subcommands:
     run      simulate one scenario over seeds (or a full mesh with
              --mesh) and print its metrics
     sweep    sweep network size or MRAI and print a table
     analyze  static pre-flight: policy safety, scenario lint, bounds
     churn    sustained-churn service mode with checkpoint/resume
     topo     generate a topology (edge list or graphviz)
     trace    export one run's traces as CSV, or decode a binary trace
     figures  regenerate the paper's Figures 4-9: tables, and CSV with -o
     golden   print or check the golden-trace digests

   Usage mistakes exit 124 (cmdliner); an output path that cannot be
   created or opened exits 2; churn adds 3-7 (see EXPERIMENTS.md).

   Examples:
     bgpsim run --topology clique:15 --event tdown --mrai 30
     bgpsim run --topology internet:110 --event tlong --enhancement wrate --seeds 5
     bgpsim sweep --topology clique --axis size --values 5,10,15,20
     bgpsim figures fig8 --jobs 2 -o figs
     bgpsim topo --topology internet:48 --format dot *)

open Cmdliner

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "clique"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Bgpsim.Experiment.Clique n)
      | _ -> Error (`Msg "clique size must be a positive integer"))
  | [ "b-clique"; n ] | [ "bclique"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.B_clique n)
      | _ -> Error (`Msg "b-clique size must be an integer >= 2"))
  | [ "internet"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 3 -> Ok (Bgpsim.Experiment.Internet n)
      | _ -> Error (`Msg "internet size must be an integer >= 3"))
  | [ "waxman"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.Waxman n)
      | _ -> Error (`Msg "waxman size must be an integer >= 2"))
  | [ "glp"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.Glp n)
      | _ -> Error (`Msg "glp size must be an integer >= 2"))
  | [ "file"; path ] -> (
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let graph = Topo.Topo_io.of_edge_list text in
        Ok
          (Bgpsim.Experiment.Custom
             { graph; origin = 0; name = Filename.basename path })
      with
      | Sys_error msg -> Error (`Msg msg)
      | Invalid_argument msg -> Error (`Msg msg))
  | _ ->
      Error
        (`Msg
          "expected clique:N, b-clique:N, internet:N, waxman:N, glp:N or file:PATH")

let topology_conv =
  let print fmt t =
    Format.pp_print_string fmt (Bgpsim.Experiment.topology_name t)
  in
  Arg.conv (parse_topology, print)

let enhancement_conv =
  let parse s =
    match Bgp.Enhancement.of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown enhancement %S (expected %s)" s
               (String.concat ", " (List.map Bgp.Enhancement.name Bgp.Enhancement.all))))
  in
  Arg.conv (parse, Bgp.Enhancement.pp)

let topology_arg =
  Arg.(
    required
    & opt (some topology_conv) None
    & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
        ~doc:
          "Topology: clique:N, b-clique:N (2N nodes), internet:N, waxman:N, \
           glp:N, or file:PATH (edge list with an 'n <nodes>' header; node 0 \
           is the destination).")

let event_name = Bgpsim.Experiment.event_name

let event_arg =
  let event =
    Arg.enum
      [
        ("tdown", Bgpsim.Experiment.Tdown);
        ("tlong", Bgpsim.Experiment.Tlong);
        ("tup", Bgpsim.Experiment.Tup);
        ("trecover", Bgpsim.Experiment.Trecover);
      ]
  in
  Arg.(
    value & opt event Bgpsim.Experiment.Tdown
    & info [ "e"; "event" ] ~docv:"EVENT"
        ~doc:
          "Event: tdown (destination withdrawn), tlong (one link fails), tup \
           (destination appears) or trecover (failed link comes back).")

let enhancement_arg =
  Arg.(
    value
    & opt enhancement_conv Bgp.Enhancement.Standard
    & info [ "enhancement" ] ~docv:"MECH"
        ~doc:"Convergence mechanism: standard, ssld, wrate, assertion or ghost-flushing.")

(* [base] restricted to the values [ok] accepts: any other value is a
   usage error (exit 124) that names the option, never an exception
   from inside the run. *)
let checked_conv base ok msg =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg msg)
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let finite_nonneg v = Float.is_finite v && v >= 0.

let mrai_conv =
  checked_conv Arg.float finite_nonneg
    "the MRAI must be a finite number of seconds >= 0"

let mrai_arg =
  Arg.(
    value & opt mrai_conv 30.
    & info [ "mrai" ] ~docv:"SECONDS"
        ~doc:"MRAI timer value, finite and >= 0 (paper default 30).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of seeds to average over (seed, seed+1, ...).")

(* One converter for every command's --jobs: a negative count is a
   usage error. *)
let jobs_conv =
  checked_conv Arg.int (fun n -> n >= 0)
    "the number of jobs must be an integer >= 0"

let positive_int_conv =
  checked_conv Arg.int (fun n -> n > 0) "the value must be an integer > 0"

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains running the (spec, seed) batch, the calling one \
           included, >= 0 (0 and 1 run sequentially); results are identical \
           to --jobs 1 (default: sequential).")

let scenario_conv =
  let parse s =
    match Faults.Scenario.of_string s with
    | Ok sc -> Ok sc
    | Error msg -> Error (`Msg ("bad scenario: " ^ msg))
  in
  Arg.conv (parse, Faults.Scenario.pp)

let scenario_arg =
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~docv:"SCRIPT"
        ~doc:
          (Printf.sprintf
             "Scripted fault schedule overriding --event; semicolon-separated \
              clauses: fail@T:a-b, recover@T:a-b, reset@T:a-b, crash@T:n, \
              restart@T:n, storm@T:a-b,PERIOD,COUNT, \
              corr@T:a-b+c-d[,RECOVER], rand@COUNT:WINDOW[,RECOVER], loss=P, \
              dup=P.  Times are seconds after the injection instant; a storm \
              COUNT is at most %d."
             Faults.Scenario.max_storm_count))

let invariants_arg =
  let mode =
    Arg.enum
      (List.map
         (fun m -> (Faults.Invariant.mode_name m, m))
         [ Faults.Invariant.Off; Faults.Invariant.Record; Faults.Invariant.Strict ])
  in
  Arg.(
    value & opt mode Faults.Invariant.Off
    & info [ "invariants" ] ~docv:"MODE"
        ~doc:
          "Runtime invariant checking: off, record (count violations into \
           the metrics) or strict (abort the run on the first violation).")

let max_events_arg =
  Arg.(
    value & opt int 20_000_000
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Per-run event budget; a run that exceeds it is reported as \
           non-converged instead of hanging.")

let max_vtime_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-vtime" ] ~docv:"SECONDS"
        ~doc:"Per-run virtual-time budget (default: unbounded).")

let preflight_arg =
  let mode =
    Arg.enum
      (List.map
         (fun m -> (Analysis.Preflight.mode_name m, m))
         [ Analysis.Preflight.Off; Analysis.Preflight.Warn; Analysis.Preflight.Strict ])
  in
  Arg.(
    value & opt mode Analysis.Preflight.Off
    & info [ "preflight" ] ~docv:"MODE"
        ~doc:
          "Static pre-flight analysis (dispute-digraph policy safety, \
           scenario lint, convergence bounds): off, warn (report only) or \
           strict (skip statically-doomed runs).")

let spec_of ?scenario ?(invariants = Faults.Invariant.Off)
    ?(max_events = 20_000_000) ?max_vtime ?(preflight = Analysis.Preflight.Off)
    topology event enhancement mrai seed =
  let event =
    match scenario with
    | Some sc -> Bgpsim.Experiment.Scenario sc
    | None -> event
  in
  {
    (Bgpsim.Experiment.default_spec topology) with
    event;
    enhancement;
    mrai;
    seed;
    invariants;
    max_events;
    max_vtime;
    preflight;
  }

let seed_list ~seed ~seeds = List.init (Stdlib.max 1 seeds) (fun i -> seed + i)

(* The pre-flight report of [spec] at its base seed, or the error of an
   analysis that raises. *)
let preflight_text spec =
  match Bgpsim.Experiment.analyze spec with
  | report -> Format.asprintf "%a" Analysis.Preflight.pp report
  | exception exn -> "pre-flight analysis failed: " ^ Printexc.to_string exn

(* [f] creates or opens output paths.  One that cannot be created or
   opened ends the command with one line and exit status 2: the
   Sys_error of a failed open or mkdir reads "PATH: REASON". *)
let writing f =
  try f ()
  with Sys_error msg ->
    Printf.eprintf "bgpsim: cannot write %s\n" msg;
    exit 2

(* --- run --- *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured event trace of the first seed's run to \
           $(docv) (format set by --trace-format) and print its JSONL digest \
           (the golden-trace fixture format).")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("binary", `Binary) ]) `Json
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace encoding for --trace: json (JSONL, the golden/oracle \
           format) or binary (length-prefixed frames, the fast path; decode \
           back to JSONL with 'trace decode').")

let trace_sink path = function
  | `Json -> Obs.Sink.jsonl_file path
  | `Binary -> Obs.Sink.binary_file path

(* The printed digest is always the canonical JSONL digest, whatever
   encoding was written — a binary capture is decoded back through the
   oracle so the number stays comparable with the golden fixtures. *)
let trace_jsonl_digest path = function
  | `Json -> Obs.Trace_digest.of_file path
  | `Binary ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len in
      close_in ic;
      Obs.Trace_digest.of_events (Obs.Binary.decode_all bytes)

let counters_flag =
  Arg.(
    value & flag
    & info [ "counters" ]
        ~doc:
          "Collect per-node and global counters (messages, decision runs, \
           FIB changes, queue-depth high-water marks) and print the merged \
           registry across all seeds/workers.")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the event engine: per-event-tag counts, wall-clock totals \
           and minor words, merged across all seeds/workers.")

let mesh_flag =
  Arg.(
    value & flag
    & info [ "mesh" ]
        ~doc:
          "Full-mesh multi-prefix mode: every node originates its own prefix \
           over one shared event stream, and the resolved origin's prefix is \
           withdrawn after warm-up ($(b,--event)/$(b,--scenario) are \
           ignored).  Prints one row per seed; $(b,--trace) records the \
           per-prefix-tagged trace of the first seed.")

(* One seed's run under its own bus and profile.  The bus is off unless
   --trace or --counters is set, and the trace sink (opened before any
   seed runs) rides on the first seed only.  Returns the run's result
   with its counter snapshot and profile, for merging after the ordered
   gather. *)
let with_seed_obs ~trace ~counters ~profile i run =
  let regs = if counters then Some (Obs.Counters.create ()) else None in
  let obs =
    match (trace, regs) with
    | None, None -> Obs.Bus.off
    | _ ->
        let sink =
          match trace with
          | Some sink when i = 0 -> sink
          | Some _ | None -> Obs.Sink.null
        in
        Obs.Bus.create ~sink ?counters:regs ()
  in
  let prof = if profile then Some (Obs.Profile.create ()) else None in
  let r =
    Fun.protect ~finally:(fun () -> Obs.Bus.close obs) (fun () -> run obs prof)
  in
  (r, Option.map Obs.Counters.snapshot regs, prof)

(* One full-mesh run per seed, sequentially (the runs share nothing, but
   mesh rows report wall-clock throughput, so no --jobs overlap).  Prints
   the rows and the failed runs; returns the completed seeds' results. *)
let run_mesh ~(spec : Bgpsim.Experiment.spec) ~seeds:seedl ~with_obs =
  let graph, victim, _event = Bgpsim.Experiment.resolve spec in
  let row sd obs prof =
    let config = Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement in
    let t0 = Unix.gettimeofday () in
    let o =
      Bgp.Mesh_sim.run ~config ~max_events:spec.max_events
        ?max_vtime:spec.max_vtime ~invariants:spec.invariants ~obs
        ?profile:prof ~graph ~victim ~seed:sd ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    let until = o.victim_convergence_end in
    let loops, loop_s =
      List.fold_left
        (fun (c, s) (_, r) ->
          let a = Loopscan.Scanner.aggregate r ~until in
          (c + a.count, s +. a.total_loop_seconds))
        (0, 0.) o.loop_reports
    in
    [
      string_of_int sd;
      string_of_int (List.length o.prefixes);
      string_of_int o.events_executed;
      Printf.sprintf "%.3f" wall;
      (if wall > 0. then
         Printf.sprintf "%.0f" (float_of_int o.events_executed /. wall)
       else "-");
      Bgpsim.Report.float_cell (Bgp.Mesh_sim.convergence_time o);
      (if o.converged then "yes" else "NO");
      string_of_int o.victim_messages;
      string_of_int o.background_messages;
      string_of_int loops;
      Printf.sprintf "%.1f" loop_s;
    ]
  in
  let results =
    Bgpsim.Parallel.run ~jobs:1
      (List.mapi (fun i sd () -> with_obs i (row sd)) seedl)
  in
  let ok = List.filter_map Result.to_option results in
  print_string
    (Bgpsim.Report.table
       ~title:
         (Printf.sprintf "full mesh: %d prefixes on %s, victim %d"
            (Topo.Graph.n_nodes graph)
            (Bgpsim.Experiment.topology_name spec.topology)
            victim)
       ~header:
         [
           "seed"; "prefixes"; "events"; "wall(s)"; "ev/s"; "conv(s)";
           "conv?"; "victim-msg"; "bg-msg"; "loops"; "loop-s";
         ]
       ~rows:(List.map (fun (row, _, _) -> row) ok));
  let scenario = Bgpsim.Experiment.topology_name spec.topology ^ "/mesh" in
  let failures =
    List.concat
      (List.map2
         (fun seed -> function
           | Ok _ -> []
           | Error exn ->
               let message = Printexc.to_string exn in
               [ { Bgpsim.Sweep.seed; scenario; message } ])
         seedl results)
  in
  if failures <> [] then
    Format.printf "@.%s@." (Bgpsim.Sweep.failures_table failures);
  List.map (fun (_, c, p) -> (c, p)) ok

(* Every single-prefix seed goes through the error-isolating sweep, so
   failures, budget hits and strict pre-flight skips print the same way
   whatever flags are set.  Returns the completed seeds' results. *)
let run_seeds ~(spec : Bgpsim.Experiment.spec) ~seeds:seedl ~jobs ~with_obs =
  let results =
    Bgpsim.Parallel.run ~jobs
      (List.mapi
         (fun i seed () ->
           with_obs i (fun obs profile ->
               (Bgpsim.Experiment.run ~obs ?profile { spec with seed })
                 .Bgpsim.Experiment.metrics))
         seedl)
  in
  let robust =
    Bgpsim.Sweep.robust_of_results spec ~seeds:seedl
      (List.map (Result.map (fun (m, _, _) -> m)) results)
  in
  (match robust.metrics with
  | Some m -> Format.printf "@.%a@." Metrics.Run_metrics.pp m
  | None -> Format.printf "@.no run completed@.");
  if robust.non_converged > 0 then
    Format.printf "@.%d of %d run(s) hit a budget (non-converged)@."
      robust.non_converged robust.completed;
  if robust.rejected <> [] then
    Format.printf "@.%d run(s) skipped by the strict pre-flight@."
      (List.length robust.rejected);
  if robust.failures <> [] then
    Format.printf "@.%s@." (Bgpsim.Sweep.failures_table robust.failures);
  List.filter_map
    (function Ok (_, c, p) -> Some (c, p) | Error _ -> None)
    results

let run_cmd =
  let action topology event scenario invariants max_events max_vtime preflight
      enhancement mrai seed seeds jobs trace_file trace_format counters profile
      mesh =
    let spec =
      spec_of ?scenario ~invariants ~max_events ?max_vtime ~preflight topology
        event enhancement mrai seed
    in
    (* a full-mesh run withdraws the resolved origin's prefix, so the
       victim is resolved as for T_down whatever --event/--scenario say *)
    let spec =
      if mesh then { spec with event = Bgpsim.Experiment.Tdown } else spec
    in
    let seedl = seed_list ~seed ~seeds in
    let trace =
      Option.map
        (fun p -> writing (fun () -> trace_sink p trace_format))
        trace_file
    in
    Format.printf "%s  event=%s  enhancement=%a  mrai=%gs  seeds=%d@."
      (Bgpsim.Experiment.topology_name topology)
      (if mesh then "mesh" else event_name spec.event)
      Bgp.Enhancement.pp enhancement mrai seeds;
    (* the seeds of an analysis that raises then fail into the
       failed-runs table *)
    if preflight <> Analysis.Preflight.Off then
      Format.printf "@.%s@." (preflight_text spec);
    let with_obs i run = with_seed_obs ~trace ~counters ~profile i run in
    let completed =
      if mesh then run_mesh ~spec ~seeds:seedl ~with_obs
      else run_seeds ~spec ~seeds:seedl ~jobs ~with_obs
    in
    (match trace_file with
    | Some path when Sys.file_exists path ->
        Format.printf "@.trace %s  digest %s@." path
          (trace_jsonl_digest path trace_format)
    | Some _ | None -> ());
    (match List.filter_map fst completed with
    | [] -> ()
    | s :: rest ->
        Format.printf "@.%a" Obs.Counters.pp
          (List.fold_left Obs.Counters.merge s rest));
    match List.filter_map snd completed with
    | [] -> ()
    | p :: rest ->
        List.iter (fun src -> Obs.Profile.merge_into ~src ~dst:p) rest;
        Format.printf "@.%a" Obs.Profile.pp p
  in
  let term =
    Term.(
      const action $ topology_arg $ event_arg $ scenario_arg $ invariants_arg
      $ max_events_arg $ max_vtime_arg $ preflight_arg $ enhancement_arg
      $ mrai_arg $ seed_arg $ seeds_arg $ jobs_arg $ trace_file_arg
      $ trace_format_arg $ counters_flag $ profile_flag $ mesh_flag)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one failure scenario and print its metrics")
    term

(* --- analyze --- *)

let analyze_cmd =
  let topology_opt_arg =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
          ~doc:
            "Topology to analyze: clique:N, b-clique:N, internet:N, waxman:N, \
             glp:N, or file:PATH.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (enum [ ("shortest-path", `Shortest); ("gao-rexford", `Gao) ]) `Shortest
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Route selection policy to analyze: shortest-path (the paper's) \
             or gao-rexford (valley-free over degree-inferred \
             relationships).")
  in
  let max_paths_arg =
    Arg.(
      value & opt int 50_000
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Permitted-path enumeration budget; beyond it the verdict \
             degrades to 'unknown' (or the Gao-Rexford certificate).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report(s) as a JSON array to $(docv).")
  in
  let fixture_arg =
    let fixture =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun msg -> `Msg msg) (Analysis.Fixtures.find s)),
          fun fmt (i : Analysis.Fixtures.instance) ->
            Format.pp_print_string fmt i.label )
    in
    Arg.(
      value
      & opt (some fixture) None
      & info [ "fixture" ] ~docv:"NAME"
          ~doc:
            "Analyze a canonical SPVP fixture instead of a topology: \
             bad-gadget (the Griffin-Wilfong dispute wheel, expected unsafe) \
             or good-gadget.")
  in
  let golden_flag =
    Arg.(
      value & flag
      & info [ "golden" ]
          ~doc:
            "Analyze every golden-trace fixture's spec (the CI smoke set) in \
             addition to any --topology/--fixture selection.")
  in
  let action topology event scenario policy mrai seed max_paths json fixture
      golden =
    let reports = ref [] in
    let add label report = reports := (label, report) :: !reports in
    Option.iter
      (fun (i : Analysis.Fixtures.instance) ->
        add i.label
          (Analysis.Preflight.analyze ~max_paths ~graph:i.graph
             ~policy:i.policy ~origin:i.origin ~mrai
             ~params:Netcore.Params.default ()))
      fixture;
    if golden then
      List.iter
        (fun (f : Bgpsim.Golden.fixture) ->
          add f.name (Bgpsim.Experiment.analyze ~max_paths f.spec))
        Bgpsim.Golden.fixtures;
    (match topology with
    | None -> ()
    | Some topology ->
        let spec = spec_of ?scenario topology event Bgp.Enhancement.Standard mrai seed in
        let label =
          Printf.sprintf "%s/%s"
            (Bgpsim.Experiment.topology_name topology)
            (event_name spec.event)
        in
        let report =
          match policy with
          | `Shortest -> Bgpsim.Experiment.analyze ~max_paths spec
          | `Gao ->
              let graph, _, _ = Bgpsim.Experiment.resolve_raw spec in
              let rel = Bgp.Policy.relationships_by_degree graph in
              Bgpsim.Experiment.analyze ~max_paths
                ~policy:(Bgp.Policy.gao_rexford ~rel) ~gr_rel:rel spec
        in
        add label report);
    let reports = List.rev !reports in
    if reports = [] then
      `Error
        (true, "nothing to analyze: give --topology, --fixture or --golden")
    else begin
      List.iter
        (fun (label, report) ->
          Format.printf "== %s ==@.%a@.@." label Analysis.Preflight.pp report)
        reports;
      (match json with
      | None -> ()
      | Some path ->
          let oc = writing (fun () -> open_out path) in
          output_string oc
            (Json.to_string
               (Json.List
                  (List.map
                     (fun (label, r) ->
                       Json.Obj
                         [
                           ("name", Json.Str label);
                           ("report", Analysis.Preflight.to_json r);
                         ])
                     reports)));
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" path);
      let doomed =
        List.filter (fun (_, r) -> Analysis.Preflight.blocking r <> []) reports
      in
      if doomed <> [] then begin
        Format.printf "inadmissible: %s@."
          (String.concat ", " (List.map fst doomed));
        exit 1
      end;
      `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const action $ topology_opt_arg $ event_arg $ scenario_arg
       $ policy_arg $ mrai_arg $ seed_arg $ max_paths_arg $ json_arg
       $ fixture_arg $ golden_flag))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static pre-flight: certify policy safety via the SPVP dispute \
          digraph, lint the fault scenario, and derive convergence bounds — \
          without running the simulator.  Exits nonzero when any analyzed \
          instance is statically doomed (unsafe policy or lint error).")
    term

(* --- golden --- *)

let golden_cmd =
  let check_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Instead of printing, compare the recomputed digests against the \
             committed fixture file and exit nonzero on any mismatch.")
  in
  let action check =
    match check with
    | None -> List.iter print_endline (Bgpsim.Golden.digest_lines ())
    | Some path ->
        let expected =
          Bgpsim.Golden.parse_expected
            (In_channel.with_open_bin path In_channel.input_all)
        in
        let bad = ref 0 in
        let check name got =
          match List.assoc_opt name expected with
          | Some want when String.equal want got ->
              Printf.printf "ok   %s %s\n" name got
          | Some want ->
              incr bad;
              Printf.printf "FAIL %s expected %s got %s\n" name want got
          | None ->
              incr bad;
              Printf.printf "FAIL %s missing from %s (got %s)\n" name path got
        in
        List.iter
          (fun (name, events) ->
            check name (Obs.Trace_digest.of_events (events ())))
          Bgpsim.Golden.traces;
        if !bad > 0 then exit 1
  in
  let term = Term.(const action $ check_arg) in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "Print (or --check) the golden-trace digests of the canonical runs; \
          regenerate the committed fixtures with 'golden > \
          test/golden_digests.expected'")
    term

(* --- sweep --- *)

let sweep_cmd =
  let axis_arg =
    Arg.(
      value
      & opt (enum [ ("size", `Size); ("mrai", `Mrai) ]) `Size
      & info [ "axis" ] ~docv:"AXIS" ~doc:"Sweep axis: size or mrai.")
  in
  let values_arg =
    Arg.(
      required
      & opt (some (list float)) None
      & info [ "values" ] ~docv:"V1,V2,..." ~doc:"Sweep values.")
  in
  let family_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("clique", `Clique); ("b-clique", `B_clique); ("internet", `Internet);
             ])
          `Clique
      & info [ "t"; "topology" ] ~docv:"FAMILY"
          ~doc:"Topology family for the sweep: clique, b-clique or internet.")
  in
  let size_arg =
    Arg.(
      value & opt int 10
      & info [ "size" ] ~docv:"N" ~doc:"Fixed size when sweeping the MRAI.")
  in
  let action family axis values size event preflight enhancement mrai seed
      seeds jobs =
    let topology n =
      match family with
      | `Clique -> Bgpsim.Experiment.Clique n
      | `B_clique -> Bgpsim.Experiment.B_clique n
      | `Internet -> Bgpsim.Experiment.Internet n
    in
    let make v =
      match axis with
      | `Size ->
          spec_of ~preflight (topology (int_of_float v)) event enhancement
            mrai seed
      | `Mrai -> spec_of ~preflight (topology size) event enhancement v seed
    in
    let axis_name = match axis with `Size -> "size" | `Mrai -> "mrai" in
    let x_cell v =
      match axis with
      | `Size -> string_of_int (int_of_float v)
      | `Mrai -> Printf.sprintf "%g" v
    in
    (* one report per point, at the base seed; a point whose analysis
       raises prints the error and the sweep goes on *)
    if preflight <> Analysis.Preflight.Off then
      List.iter
        (fun v ->
          Format.printf "%s %s:@.%s@.@." axis_name (x_cell v)
            (preflight_text (make v)))
        values;
    let metric_cells (m : Metrics.Run_metrics.t) =
      [
        Bgpsim.Report.float_cell m.convergence_time;
        Bgpsim.Report.float_cell m.overall_looping_duration;
        string_of_int m.ttl_exhaustions;
        Bgpsim.Report.ratio_cell m.looping_ratio;
        string_of_int m.updates_sent;
      ]
    in
    (* a point whose every seed failed (or was skipped by a strict
       pre-flight) is labelled instead of aborting the whole sweep *)
    let points =
      Bgpsim.Sweep.series_robust ~jobs ~make ~seeds:(seed_list ~seed ~seeds)
        values
    in
    let rows =
      List.map
        (fun (v, (r : Bgpsim.Sweep.robust)) ->
          x_cell v
          ::
          (match r.metrics with
          | Some m -> metric_cells m
          | None ->
              let label = if r.rejected <> [] then "rejected" else "failed" in
              [ label; "-"; "-"; "-"; "-" ]))
        points
    in
    print_string
      (Bgpsim.Report.table
         ~title:
           (Printf.sprintf "%s sweep (%s axis, %a, mrai=%g, %d seed(s))"
              (match family with
              | `Clique -> "clique"
              | `B_clique -> "b-clique"
              | `Internet -> "internet")
              axis_name
              (fun () e -> Bgp.Enhancement.name e)
              enhancement mrai seeds)
         ~header:
           [
             axis_name;
             "conv(s)";
             "loop-dur(s)";
             "ttl-exh";
             "ratio";
             "updates";
           ]
         ~rows);
    (* every failed run, so a point averaged over fewer seeds shows *)
    match
      List.concat_map (fun (_, (r : Bgpsim.Sweep.robust)) -> r.failures) points
    with
    | [] -> ()
    | failures -> Format.printf "@.%s@." (Bgpsim.Sweep.failures_table failures)
  in
  let term =
    Term.(
      const action $ family_arg $ axis_arg $ values_arg $ size_arg $ event_arg
      $ preflight_arg $ enhancement_arg $ mrai_arg $ seed_arg $ seeds_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep network size or MRAI and print the resulting series")
    term

(* --- churn --- *)

let churn_cmd =
  let epochs_arg =
    Arg.(
      value
      & opt
          (checked_conv int (fun n -> n >= 0)
             "the number of epochs must be an integer >= 0")
          10
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "Total completed epochs to reach.  Absolute, so a resumed run \
             continues toward the same horizon.")
  in
  let epoch_len_arg =
    Arg.(
      value
      & opt
          (checked_conv float
             (fun v -> Float.is_finite v && v > 0.)
             "the epoch length must be a finite number of seconds > 0")
          300.
      & info [ "epoch-len" ] ~docv:"SECONDS"
          ~doc:
            "Virtual seconds each epoch's churn events are spread over, \
             finite and > 0.")
  in
  let flap_rate_arg =
    Arg.(
      value
      & opt
          (checked_conv float
             (fun r -> 0. <= r && r <= 100.)
             "the flap rate must lie in [0, 100]")
          4.
      & info [ "flap-rate" ] ~docv:"RATE"
          ~doc:
            "Mean churn events per epoch (Poisson), in [0, 100]: link \
             flaps, session resets and origin prefix flaps.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write boundary checkpoints into $(docv) (created if absent); \
             required by --resume.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt positive_int_conv 4
      & info [ "checkpoint-every" ] ~docv:"EPOCHS"
          ~doc:"Epochs between checkpoints (one is always written at the end).")
  in
  let compact_every_arg =
    Arg.(
      value & opt positive_int_conv 8
      & info [ "compact-every" ] ~docv:"EPOCHS"
          ~doc:
            "Epochs between path-arena compactions (live handles re-interned \
             into a fresh arena).")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the latest checkpoint in --checkpoint-dir; the \
             resumed run reproduces the uninterrupted one bit-identically \
             (same chain digest).")
  in
  let max_wall_arg =
    Arg.(
      value
      & opt
          (some
             (checked_conv float finite_nonneg
                "the wall-clock budget must be a finite number of seconds \
                 >= 0"))
          None
      & info [ "max-wall-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget, finite and >= 0; on expiry the run degrades \
             gracefully (flushes, reports the last checkpoint) and exits \
             with status wall-expired.")
  in
  let target_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Stop (completed) at the first epoch boundary with at least \
             $(docv) cumulative engine events.")
  in
  let stall_arg =
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "stall-epochs" ] ~docv:"N"
          ~doc:
            "Report a structured stall (and stop) after $(docv) consecutive \
             epochs without a single FIB change.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-epoch" ] ~docv:"EPOCH"
          ~doc:
            "Stop right after the boundary checkpoint of epoch $(docv) — the \
             deterministic mid-flight kill the resume tests and CI use.")
  in
  let no_digest_flag =
    Arg.(
      value & flag
      & info [ "no-digest" ]
          ~doc:
            "Skip per-epoch trace digesting (throughput benchmarking; the \
             final chain digest is then unavailable).")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-epoch lines.")
  in
  let churn_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Stream every trace event (warm-up included) to $(docv) in the \
             encoding set by --trace-format, teed with the digest chain.")
  in
  let action topology epochs epoch_len flap_rate seed mrai enhancement
      checkpoint_dir checkpoint_every compact_every resume max_wall_s
      target_events stall_epochs kill_after_epoch no_digest trace_file
      trace_format quiet =
    let graph, origin, _ =
      Bgpsim.Experiment.resolve_raw
        { (Bgpsim.Experiment.default_spec topology) with seed }
    in
    let bgp = Bgp.Config.of_enhancement ~mrai enhancement in
    let workload = Churn.Workload.make ~epoch_len ~flap_rate () in
    (match checkpoint_dir with
    | Some dir when not (Sys.file_exists dir) ->
        writing (fun () -> Sys.mkdir dir 0o755)
    | Some _ | None -> ());
    let resume_from =
      if not resume then None
      else
        match checkpoint_dir with
        | None ->
            prerr_endline "churn: --resume requires --checkpoint-dir";
            exit 2
        | Some dir -> (
            match Churn.Checkpoint.latest ~dir with
            | Some (epoch, path) ->
                Printf.printf "resuming from %s (epoch %d)\n%!" path epoch;
                Some path
            | None ->
                Printf.eprintf "churn: no checkpoint found in %s\n" dir;
                exit 2)
    in
    let cfg =
      Churn.Driver.make ~seed ~bgp ~workload ~epochs ?target_events
        ?checkpoint_dir ~checkpoint_every ~compact_every
        ~digest:(not no_digest) ?stall_epochs ?kill_after_epoch ~graph ~origin
        ()
    in
    let watchdog = Faults.Watchdog.create ?max_wall_s () in
    Printf.printf
      "churn %s  origin=%d  epochs=%d  epoch-len=%gs  flap-rate=%g  \
       enhancement=%s  mrai=%gs  seed=%d\n\
       %!"
      (Bgpsim.Experiment.topology_name topology)
      origin epochs epoch_len flap_rate
      (Bgp.Enhancement.name enhancement)
      mrai seed;
    let on_epoch (e : Churn.Driver.epoch_info) =
      if not quiet then
        Printf.printf
          "epoch %4d  vtime %12.1f  events %9d  fib %6d  loops %3d  arena \
           %6d%s%s\n\
           %!"
          e.ei_epoch e.ei_vtime e.ei_events e.ei_fib_changes e.ei_live_loops
          e.ei_arena_size
          (if e.ei_compacted then "  compacted" else "")
          (match e.ei_checkpoint with
          | Some p -> "  ckpt " ^ Filename.basename p
          | None -> "")
    in
    let sink =
      Option.map
        (fun p -> writing (fun () -> trace_sink p trace_format))
        trace_file
    in
    (* a checkpoint or trace write that fails mid-run (say, a
       --checkpoint-dir that is a regular file) ends like a path that
       cannot be opened *)
    let r =
      try
        writing (fun () ->
            Churn.Driver.run ~watchdog ~on_epoch ?resume_from ?sink cfg)
      with
      | Churn.Checkpoint.Incompatible_version _ as e ->
          Printf.eprintf "churn: %s\n" (Printexc.to_string e);
          exit 6
      | Churn.Checkpoint.Corrupt _ as e ->
          Printf.eprintf "churn: %s\n" (Printexc.to_string e);
          exit 7
    in
    let t = r.loop_totals in
    Printf.printf "status %s\n" (Churn.Driver.status_name r.status);
    Printf.printf "epochs %d  events %d  vtime %.1f\n" r.epochs_completed
      r.events_executed r.vtime;
    Printf.printf
      "loops: started %d  resolved %d  live %d  max-concurrent %d  mean-size \
       %.2f  loop-seconds %.3f\n"
      t.loops_started t.loops_resolved t.live_now t.max_concurrent t.mean_size
      t.total_loop_seconds;
    Printf.printf "arena: size %d  peak %d  words %d\n" r.arena_size
      r.arena_peak r.arena_words;
    Printf.printf "chain-digest %s\n"
      (match r.chain_digest with Some d -> d | None -> "-");
    (match r.last_checkpoint with
    | Some p -> Printf.printf "last-checkpoint %s\n" p
    | None -> ());
    match r.status with
    | Churn.Driver.Completed | Churn.Driver.Killed _ -> ()
    | Churn.Driver.Stalled _ -> exit 3
    | Churn.Driver.Wall_expired -> exit 4
    | Churn.Driver.Event_limit -> exit 5
  in
  let term =
    Term.(
      const action $ topology_arg $ epochs_arg $ epoch_len_arg $ flap_rate_arg
      $ seed_arg $ mrai_arg $ enhancement_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ compact_every_arg $ resume_flag $ max_wall_arg
      $ target_events_arg $ stall_arg $ kill_arg $ no_digest_flag
      $ churn_trace_arg $ trace_format_arg $ quiet_flag)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Sustained-churn service mode: drive one persistent simulation \
          through a long horizon of flap epochs with streaming loop \
          detection, bounded memory (arena compaction), checkpoint/resume \
          and wall-clock watchdog")
    term

(* --- topo --- *)

let topo_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("edges", `Edges); ("dot", `Dot) ]) `Edges
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: edges or dot.")
  in
  let action topology format seed =
    let graph, _, _ =
      Bgpsim.Experiment.resolve_raw
        { (Bgpsim.Experiment.default_spec topology) with seed }
    in
    match format with
    | `Edges -> print_string (Topo.Topo_io.to_edge_list graph)
    | `Dot -> print_string (Topo.Topo_io.to_dot graph)
  in
  let term = Term.(const action $ topology_arg $ format_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology and print it")
    term

(* --- trace --- *)

let trace_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Directory the CSV files are written into (created if absent).")
  in
  let action topology event enhancement mrai seed dir =
    let spec = spec_of topology event enhancement mrai seed in
    writing (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    (* messages.csv is the run's Update_sent events; no other event is
       kept *)
    let sent = ref [] in
    let sink =
      Obs.Sink.fn (function
        | Obs.Event.Update_sent _ as ev -> sent := ev :: !sent
        | _ -> ())
    in
    let run = Bgpsim.Experiment.run ~obs:(Obs.Bus.create ~sink ()) spec in
    let write name text =
      let path = Filename.concat dir name in
      writing (fun () ->
          Out_channel.with_open_text path (fun oc -> output_string oc text));
      Printf.printf "wrote %s\n" path
    in
    let fib = Netcore.Trace.fib run.outcome.trace in
    let from = run.outcome.t_fail in
    write "fib_changes.csv" (Metrics.Export.fib_changes_csv fib ~from);
    write "messages.csv" (Metrics.Export.sends_csv (List.rev !sent) ~from);
    write "loops.csv"
      (Metrics.Export.loops_csv run.loops
         ~until:(run.outcome.convergence_end +. spec.replay_tail));
    Format.printf "%a@." Metrics.Run_metrics.pp run.metrics
  in
  let export_term =
    Term.(
      const action $ topology_arg $ event_arg $ enhancement_arg $ mrai_arg
      $ seed_arg $ dir_arg)
  in
  (* trace decode: the binary→JSONL oracle.  Output is byte-identical
     to what Sink.jsonl_file would have written for the same run, so
     golden digests carry over to binary captures. *)
  let decode_cmd =
    let input_arg =
      Arg.(
        required
        & pos 0 (some non_dir_file) None
        & info [] ~docv:"TRACE" ~doc:"Binary trace file to decode.")
    in
    let output_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the JSONL to $(docv) instead of standard output.")
    in
    let action input output =
      let ic = open_in_bin input in
      let reader =
        try Obs.Binary.open_reader ic
        with Failure msg ->
          close_in_noerr ic;
          Printf.eprintf "trace decode: %s: %s\n" input msg;
          exit 1
      in
      let oc, close_oc =
        match output with
        | None -> (stdout, fun () -> flush stdout)
        | Some path ->
            let oc = writing (fun () -> open_out path) in
            (oc, fun () -> close_out oc)
      in
      let count = ref 0 in
      (try
         let continue_ = ref true in
         while !continue_ do
           match Obs.Binary.input reader with
           | None -> continue_ := false
           | Some ev ->
               output_string oc (Obs.Event.to_json ev);
               output_char oc '\n';
               incr count
         done
       with Failure msg ->
         close_oc ();
         close_in_noerr ic;
         Printf.eprintf "trace decode: %s: %s\n" input msg;
         exit 1);
      close_oc ();
      close_in ic;
      match output with
      | Some path -> Printf.printf "decoded %d events -> %s\n" !count path
      | None -> ()
    in
    Cmd.v
      (Cmd.info "decode"
         ~doc:
           "Decode a binary trace (--trace-format binary) back to JSONL, \
            byte-identical to what the run would have written directly")
      Term.(const action $ input_arg $ output_arg)
  in
  Cmd.group ~default:export_term
    (Cmd.info "trace"
       ~doc:
         "Run one scenario and export its FIB/message/loop traces as CSV, or \
          decode a binary event trace back to JSONL ('trace decode')")
    [ decode_cmd ]

(* --- figures --- *)

let figures_cmd =
  let names_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) Bgpsim.Figures.names)) []
      & info [] ~docv:"FIGURE"
          ~doc:
            "Figure group to run: fig4, fig5, fig8 or fig9; fig6 and fig7 \
             name the runs they share with fig4 and fig5.  Default: every \
             group.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:
            "Also write each data series as a CSV file into $(docv) (created \
             if absent).")
  in
  let action names dir jobs =
    writing (fun () -> Bgpsim.Figures.run ~jobs ?dir names)
  in
  let term = Term.(const action $ names_arg $ dir_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the paper's Figures 4-9: print their tables and, with \
          -o, write every data series as CSV for offline plotting")
    term

let () =
  let info =
    Cmd.info "bgpsim" ~version:"1.0.0"
      ~doc:"BGP path-vector transient-loop simulator (ICDCS 2004 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            analyze_cmd;
            churn_cmd;
            topo_cmd;
            trace_cmd;
            figures_cmd;
            golden_cmd;
          ]))

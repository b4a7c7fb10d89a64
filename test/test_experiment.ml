(* Tests for the experiment driver, sweeps and report rendering. *)

open Bgpsim

let test_topology_names () =
  Alcotest.(check string) "clique" "clique-15"
    (Experiment.topology_name (Experiment.Clique 15));
  Alcotest.(check string) "b-clique" "b-clique-10"
    (Experiment.topology_name (Experiment.B_clique 10));
  Alcotest.(check string) "internet" "internet-110"
    (Experiment.topology_name (Experiment.Internet 110));
  Alcotest.(check string) "custom" "mine"
    (Experiment.topology_name
       (Experiment.Custom
          { graph = Topo.Generators.clique 3; origin = 0; name = "mine" }))

let test_node_counts () =
  Alcotest.(check int) "clique" 15 (Experiment.node_count (Experiment.Clique 15));
  Alcotest.(check int) "b-clique doubles" 20
    (Experiment.node_count (Experiment.B_clique 10));
  Alcotest.(check int) "internet" 48
    (Experiment.node_count (Experiment.Internet 48))

let test_resolve_clique () =
  let spec = Experiment.default_spec (Experiment.Clique 6) in
  let graph, origin, event = Experiment.resolve spec in
  Alcotest.(check int) "size" 6 (Topo.Graph.n_nodes graph);
  Alcotest.(check int) "origin is node 0" 0 origin;
  Alcotest.(check bool) "tdown" true (event = Bgp.Routing_sim.Tdown)

let test_resolve_b_clique_tlong () =
  let spec =
    { (Experiment.default_spec (Experiment.B_clique 5)) with
      event = Experiment.Tlong }
  in
  let _, origin, event = Experiment.resolve spec in
  Alcotest.(check int) "origin" 0 origin;
  Alcotest.(check bool) "canonical link (0, n)" true
    (event = Bgp.Routing_sim.Tlong { a = 0; b = 5 })

let test_resolve_internet_stub_destination () =
  let spec = Experiment.default_spec (Experiment.Internet 48) in
  let graph, origin, _ = Experiment.resolve spec in
  let dmin =
    List.fold_left
      (fun acc v -> Stdlib.min acc (Topo.Graph.degree graph v))
      max_int (Topo.Graph.nodes graph)
  in
  Alcotest.(check int) "destination is a stub" dmin
    (Topo.Graph.degree graph origin)

let test_resolve_internet_tlong_survivable () =
  let spec =
    { (Experiment.default_spec (Experiment.Internet 48)) with
      event = Experiment.Tlong; seed = 2 }
  in
  let graph, origin, event = Experiment.resolve spec in
  match event with
  | Bgp.Routing_sim.Tlong { a; b } ->
      Alcotest.(check bool) "link touches destination" true
        (a = origin || b = origin);
      Alcotest.(check bool) "graph survives" true
        (Topo.Graph.is_connected (Topo.Graph.remove_edge graph a b))
  | Bgp.Routing_sim.Tdown | Bgp.Routing_sim.Tup | Bgp.Routing_sim.Trecover _
  | Bgp.Routing_sim.Tshort _ | Bgp.Routing_sim.Scenario _ ->
      Alcotest.fail "expected Tlong"

let test_resolve_deterministic () =
  let spec =
    { (Experiment.default_spec (Experiment.Internet 29)) with
      event = Experiment.Tlong; seed = 5 }
  in
  let _, o1, e1 = Experiment.resolve spec in
  let _, o2, e2 = Experiment.resolve spec in
  Alcotest.(check int) "origin stable" o1 o2;
  Alcotest.(check bool) "event stable" true (e1 = e2)

let test_resolve_explicit_link () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 4)) with
      event = Experiment.Tlong_link (0, 2) }
  in
  let _, _, event = Experiment.resolve spec in
  Alcotest.(check bool) "explicit" true
    (event = Bgp.Routing_sim.Tlong { a = 0; b = 2 })

let test_resolve_random_models () =
  List.iter
    (fun topology ->
      let spec = { (Experiment.default_spec topology) with mrai = 5. } in
      let graph, origin, _ = Experiment.resolve spec in
      Alcotest.(check int)
        (Experiment.topology_name topology ^ " size")
        (Experiment.node_count topology)
        (Topo.Graph.n_nodes graph);
      Alcotest.(check bool) "connected" true (Topo.Graph.is_connected graph);
      (* destination convention matches Internet: a min-degree node *)
      let dmin =
        List.fold_left
          (fun acc v -> Stdlib.min acc (Topo.Graph.degree graph v))
          max_int (Topo.Graph.nodes graph)
      in
      Alcotest.(check int) "stub destination" dmin
        (Topo.Graph.degree graph origin);
      let m = Experiment.metrics spec in
      Alcotest.(check bool) "runs and converges" true m.converged)
    [ Experiment.Waxman 12; Experiment.Glp 12 ]

(* --- Resolution oracle --- *)

(* The destination-link rule as it stood before bridges: rebuild the
   graph without each incident link and ask whether it stays
   connected. *)
let brute_survivable_links graph origin =
  List.filter_map
    (fun peer ->
      if Topo.Graph.is_connected (Topo.Graph.remove_edge graph origin peer)
      then Some (origin, peer)
      else None)
    (Topo.Graph.neighbors graph origin)

(* What [Experiment.resolve_raw] must return for [spec] under T_long,
   by the brute-force rule with the same RNG draws: [Ok (origin, link)]
   or the [Invalid_argument] message.  T_recover draws the same. *)
let reference_resolve (spec : Experiment.spec) =
  let rng = Dessim.Rng.create ~seed:(spec.seed + 0x7_0b0) in
  let graph =
    match spec.topology with
    | Experiment.Clique n -> Topo.Generators.clique n
    | B_clique n -> Topo.Generators.b_clique n
    | Internet n -> Topo.Internet.generate ~seed:spec.seed n
    | Waxman n -> Topo.Random_graphs.waxman ~seed:spec.seed n
    | Glp n -> Topo.Random_graphs.glp ~m:2 ~seed:spec.seed n
    | Custom { graph; _ } -> graph
  in
  let degree = Topo.Graph.degree graph in
  try
    let origin =
      match spec.topology with
      | Experiment.Clique _ | B_clique _ -> 0
      | Custom { origin; _ } -> origin
      | Internet _ | Waxman _ | Glp _ ->
          let survivable =
            List.filter
              (fun v -> brute_survivable_links graph v <> [])
              (Topo.Graph.nodes graph)
          in
          let min_degree =
            List.fold_left (fun acc v -> min acc (degree v)) max_int survivable
          in
          let candidates =
            List.filter (fun v -> degree v = min_degree) survivable
          in
          if candidates = [] then
            invalid_arg "Experiment.resolve: no viable destination AS";
          Dessim.Rng.pick rng candidates
    in
    match spec.topology with
    | Experiment.B_clique n -> Ok (origin, (0, n))
    | Clique _ | Internet _ | Waxman _ | Glp _ | Custom _ -> (
        match brute_survivable_links graph origin with
        | [] ->
            invalid_arg
              "Experiment.resolve: no destination link survives the event"
        | links -> Ok (origin, Dessim.Rng.pick rng links))
  with Invalid_argument msg -> Error msg

(* [Experiment.resolve_raw] agrees with [reference_resolve] on [spec]
   under both link events. *)
let resolves_like_reference spec =
  let want = reference_resolve spec in
  let got event =
    match Experiment.resolve_raw { spec with Experiment.event } with
    | _, origin, event -> Ok (origin, event)
    | exception Invalid_argument msg -> Error msg
  in
  let expect make = Result.map (fun (o, (a, b)) -> (o, make a b)) want in
  got Experiment.Tlong = expect (fun a b -> Bgp.Routing_sim.Tlong { a; b })
  && got Experiment.Trecover
     = expect (fun a b -> Bgp.Routing_sim.Trecover { a; b })

let test_resolution_matches_brute_force () =
  let sizes = [ 3; 4; 5; 6; 7; 8; 29; 48; 75; 110 ] in
  let topologies =
    List.concat_map
      (fun n -> [ Experiment.Internet n; Waxman n; Glp n ])
      sizes
    @ List.init 8 (fun n -> Experiment.Clique (n + 1))
    @ List.init 7 (fun n -> Experiment.B_clique (n + 2))
  in
  List.iter
    (fun topology ->
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d"
               (Experiment.topology_name topology)
               seed)
            true
            (resolves_like_reference
               { (Experiment.default_spec topology) with seed }))
        [ 1; 2; 3; 4; 5; 6 ])
    topologies

(* Every node of a random, possibly disconnected graph as the
   destination of a custom topology: the survivable-link list the seed
   draws from must be the brute-force one, empty lists included. *)
let prop_custom_resolution_matches_brute_force =
  QCheck.Test.make ~name:"custom-topology link = brute-force link" ~count:300
    QCheck.(pair Graph_gen.arbitrary small_nat)
    (fun (graph, seed) ->
      List.for_all
        (fun origin ->
          let topology = Experiment.Custom { graph; origin; name = "random" } in
          resolves_like_reference
            { (Experiment.default_spec topology) with seed })
        (Topo.Graph.nodes graph))

let test_run_custom_topology () =
  let graph = Topo.Generators.ring 6 in
  let spec =
    Experiment.default_spec
      (Experiment.Custom { graph; origin = 2; name = "ring-6" })
  in
  let r = Experiment.run { spec with mrai = 5. } in
  Alcotest.(check bool) "converged" true r.metrics.converged;
  Alcotest.(check bool) "withdrawals propagate on Tdown" true
    (r.metrics.withdrawals_sent > 0)

let test_run_determinism () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let a = Experiment.metrics spec and b = Experiment.metrics spec in
  Alcotest.(check (float 0.)) "conv" a.convergence_time b.convergence_time;
  Alcotest.(check int) "exh" a.ttl_exhaustions b.ttl_exhaustions;
  Alcotest.(check int) "packets" a.packets_sent b.packets_sent

let non_converged_spec =
  (* a 50-event budget exhausts mid-warm-up on a clique-8 T_down *)
  { (Experiment.default_spec (Experiment.Clique 8)) with max_events = 50 }

let test_non_converged_still_timed () =
  let r = Experiment.run non_converged_spec in
  Alcotest.(check bool) "event budget hit" true
    (r.outcome.termination = Bgp.Routing_sim.Event_budget);
  Alcotest.(check bool) "budget respected" true
    (r.outcome.events_executed <= 50);
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  (* every exit must yield timed metrics: a budget-exhausted run still
     reports the wall-clock it actually burned *)
  Alcotest.(check bool) "wall clock measured" true
    (r.metrics.wall_clock_s > 0.)

let test_non_converged_vtime_budget_timed () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 8)) with
      max_vtime = Some 0.5 }
  in
  let r = Experiment.run spec in
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  Alcotest.(check bool) "wall clock measured" true
    (r.metrics.wall_clock_s > 0.);
  Alcotest.(check bool) "vtime budget hit" true
    (r.outcome.termination = Bgp.Routing_sim.Vtime_budget)

let test_non_converged_survives_analysis () =
  (* a truncated FIB history must not abort the pipeline at any
     truncation point: replay and loop scan either analyze what exists
     or fall back to empty results — never raise *)
  List.iter
    (fun max_events ->
      let r = Experiment.run { non_converged_spec with max_events } in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d yields timed metrics" max_events)
        true
        ((not r.metrics.converged) && r.metrics.wall_clock_s > 0.))
    [ 10; 50; 200 ]

(* --- Termination: the outcome's fields are the run's status --- *)

let converged_spec =
  { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }

let test_converged_run_drained () =
  let r = Experiment.run converged_spec in
  Alcotest.(check bool) "queue drained" true
    (r.outcome.termination = Bgp.Routing_sim.Drained);
  Alcotest.(check bool) "outcome converged" true r.outcome.converged;
  Alcotest.(check bool) "metrics agree" true r.metrics.converged;
  Alcotest.(check bool) "within the event budget" true
    (r.outcome.events_executed <= converged_spec.max_events);
  Alcotest.(check bool) "converges after the failure" true
    (r.outcome.convergence_end >= r.outcome.t_fail)

let test_exact_event_budget_drained () =
  (* a budget equal to the events a converged run needs is not
     exhausted: the queue empties on its last event *)
  let needed = (Experiment.run converged_spec).outcome.events_executed in
  let r = Experiment.run { converged_spec with max_events = needed } in
  Alcotest.(check bool) "queue drained" true
    (r.outcome.termination = Bgp.Routing_sim.Drained);
  Alcotest.(check bool) "converged" true r.metrics.converged;
  Alcotest.(check int) "same event count" needed r.outcome.events_executed

(* --- Sweep --- *)

let test_over_seeds_averages () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let m1 = Experiment.metrics { spec with seed = 1 } in
  let m2 = Experiment.metrics { spec with seed = 2 } in
  let avg = Sweep.over_seeds spec ~seeds:[ 1; 2 ] in
  Alcotest.(check (float 1e-9)) "mean of two"
    ((m1.convergence_time +. m2.convergence_time) /. 2.)
    avg.convergence_time

let test_over_seeds_rejects_empty () =
  let spec = Experiment.default_spec (Experiment.Clique 5) in
  Alcotest.check_raises "empty" (Invalid_argument "Sweep.over_seeds: empty seed list")
    (fun () -> ignore (Sweep.over_seeds spec ~seeds:[]))

let test_series_shape () =
  let make n =
    { (Experiment.default_spec (Experiment.Clique n)) with mrai = 2. }
  in
  let series = Sweep.series ~make ~seeds:[ 1 ] [ 4; 5; 6 ] in
  Alcotest.(check (list int)) "x values preserved" [ 4; 5; 6 ]
    (List.map fst series);
  List.iter
    (fun (_, (m : Metrics.Run_metrics.t)) ->
      Alcotest.(check bool) "each point converged" true m.converged)
    series

let test_linearity_helper () =
  let make m =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = m }
  in
  let series = Sweep.series ~make ~seeds:[ 1 ] [ 2.; 4.; 8. ] in
  let fit =
    Sweep.linearity series ~x:Fun.id
      ~y:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time)
  in
  (* convergence grows with MRAI: positive slope, decent fit *)
  Alcotest.(check bool) "positive slope" true (fit.slope > 0.)

(* --- Figures --- *)

(* The fig7 alias runs the two series Figures 5 and 7 share and writes
   exactly their CSVs, each the series_csv of the same specs over seeds
   1-3. *)
let test_figures_fig7_csvs () =
  let dir = Filename.temp_file "figures" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Figures.run ~jobs:2 ~dir [ "fig7" ];
      let expected =
        [
          ( "fig5a_fig7a_clique15_tdown_vs_mrai.csv",
            Experiment.Clique 15,
            Experiment.Tdown );
          ( "fig5b_fig7b_bclique10_tlong_vs_mrai.csv",
            Experiment.B_clique 10,
            Experiment.Tlong );
        ]
      in
      Alcotest.(check (list string))
        "exactly the two files"
        (List.map (fun (file, _, _) -> file) expected)
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      List.iter
        (fun (file, topology, event) ->
          let series =
            Sweep.series
              ~make:(fun mrai ->
                { (Experiment.default_spec topology) with event; mrai })
              ~seeds:[ 1; 2; 3 ]
              [ 10.; 20.; 30.; 40.; 50.; 60. ]
          in
          Alcotest.(check string) file
            (Metrics.Export.series_csv ~x_label:"mrai" series)
            (In_channel.with_open_bin (Filename.concat dir file)
               In_channel.input_all))
        expected)

(* --- Report --- *)

let test_table_layout () =
  let text =
    Report.table ~title:"T" ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | title :: header :: rule :: _ ->
      Alcotest.(check string) "title" "T" title;
      Alcotest.(check bool) "header aligned" true
        (String.length header >= String.length "a    bb");
      Alcotest.(check bool) "rule dashes" true
        (String.for_all (fun c -> c = '-' || c = ' ') rule)
  | _ -> Alcotest.fail "expected at least three lines");
  Alcotest.(check int) "line count (trailing newline)" 6 (List.length lines)

let test_table_pads_short_rows () =
  let text = Report.table ~title:"T" ~header:[ "a"; "b" ] ~rows:[ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let test_table_rejects_wide_rows () =
  Alcotest.check_raises "wide" (Invalid_argument "Report.table: row wider than header")
    (fun () ->
      ignore (Report.table ~title:"T" ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Report.float_cell 3.14159);
  Alcotest.(check string) "ratio" "86.0%" (Report.ratio_cell 0.86)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "experiment"
    [
      ( "spec",
        [
          tc "topology names" test_topology_names;
          tc "node counts" test_node_counts;
        ] );
      ( "resolve",
        [
          tc "clique" test_resolve_clique;
          tc "b-clique Tlong canonical link" test_resolve_b_clique_tlong;
          tc "internet destination is a stub"
            test_resolve_internet_stub_destination;
          tc "internet Tlong survivable" test_resolve_internet_tlong_survivable;
          tc "deterministic in seed" test_resolve_deterministic;
          tc "explicit Tlong link" test_resolve_explicit_link;
          tc "waxman and glp models" test_resolve_random_models;
          tc "link events match brute force"
            test_resolution_matches_brute_force;
          QCheck_alcotest.to_alcotest
            prop_custom_resolution_matches_brute_force;
        ] );
      ( "run",
        [
          tc "custom topology" test_run_custom_topology;
          tc "deterministic" test_run_determinism;
          tc "non-converged still timed" test_non_converged_still_timed;
          tc "non-converged vtime budget timed"
            test_non_converged_vtime_budget_timed;
          tc "non-converged survives analysis"
            test_non_converged_survives_analysis;
        ] );
      ( "termination",
        [
          tc "converged run drained" test_converged_run_drained;
          tc "exact event budget drained" test_exact_event_budget_drained;
        ] );
      ( "sweep",
        [
          tc "over_seeds averages" test_over_seeds_averages;
          tc "over_seeds rejects empty" test_over_seeds_rejects_empty;
          tc "series shape" test_series_shape;
          tc "linearity helper" test_linearity_helper;
        ] );
      ( "figures",
        [ tc "fig7 alias writes its two CSVs" test_figures_fig7_csvs ] );
      ( "report",
        [
          tc "table layout" test_table_layout;
          tc "pads short rows" test_table_pads_short_rows;
          tc "rejects wide rows" test_table_rejects_wide_rows;
          tc "cells" test_cells;
        ] );
    ]

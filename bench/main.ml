(* Reproduction harness for every figure in the paper's evaluation
   (Figures 4-9; the paper has no tables), plus Bechamel
   micro-benchmarks of the simulator's hot paths and two ablation
   studies of model choices called out in DESIGN.md §6.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig4            # one figure group
     dune exec bench/main.exe -- micro           # just the micro-benchmarks
     dune exec bench/main.exe -- --jobs 4 fig4   # sweeps on 4 worker domains
     dune exec bench/main.exe -- speedup         # sequential-vs-pool timing
     dune exec bench/main.exe -- --json out.json micro
                                                 # machine-readable perf record

   Figure groups share their underlying simulation sweeps: Figures 4
   and 6 are two views (durations vs exhaustions) of the same runs, as
   are Figures 5 and 7.  The figure groups run their (spec, seed)
   batches through a shared Sweep/Parallel domain pool; results are
   identical to a sequential run by construction (see DESIGN.md
   §"Performance"), only faster on multicore hosts. *)

open Bgpsim

let seeds_default = [ 1; 2; 3 ]

let seeds_internet_tlong = [ 1; 2; 3; 4; 5; 6 ]

let clique_sizes = [ 5; 10; 15; 20; 25; 30 ]

let b_clique_sizes = [ 5; 10; 15 ]

let internet_sizes = [ 29; 48; 75; 110 ]

let mrai_values = [ 10.; 20.; 30.; 40.; 50.; 60. ]

let say fmt = Format.printf (fmt ^^ "@.")

let spec_clique n = Experiment.default_spec (Experiment.Clique n)

let spec_b_clique_tlong n =
  {
    (Experiment.default_spec (Experiment.B_clique n)) with
    event = Experiment.Tlong;
  }

let spec_internet n = Experiment.default_spec (Experiment.Internet n)

let spec_internet_tlong n =
  { (spec_internet n) with event = Experiment.Tlong }

let fit_line ~label series ~y =
  match series with
  | _ :: _ :: _ ->
      let fit = Sweep.linearity series ~x:(fun x -> x) ~y in
      say "  fit: %s %a" label Stats.Linear_fit.pp fit
  | _ -> ()

(* Approximate total simulator events behind a series: each point is a
   mean over its seeds, so mean x seed-count recovers the per-point
   total up to integer rounding.  Good enough for an events/sec rate. *)
let series_events ~seeds series =
  let k = List.length seeds in
  List.fold_left
    (fun acc (_, (m : Metrics.Run_metrics.t)) -> acc + (m.events_executed * k))
    0 series

(* --- Figures 4 and 6: metric vs network size --- *)

let duration_rows series =
  List.map
    (fun (x, (m : Metrics.Run_metrics.t)) ->
      [
        string_of_int (int_of_float x);
        Report.float_cell m.convergence_time;
        Report.float_cell m.overall_looping_duration;
      ])
    series

let exhaustion_rows series =
  List.map
    (fun (x, (m : Metrics.Run_metrics.t)) ->
      [
        string_of_int (int_of_float x);
        string_of_int m.ttl_exhaustions;
        Report.ratio_cell m.looping_ratio;
      ])
    series

let size_series ~pool ~make ~seeds sizes =
  Sweep.series ~pool ~make:(fun x -> make (int_of_float x)) ~seeds
    (List.map float_of_int sizes)

let fig4_6 ~pool =
  say "=== Figures 4 & 6: looping vs network size ===@.";
  let clique =
    size_series ~pool ~make:spec_clique ~seeds:seeds_default clique_sizes
  in
  print_string
    (Report.table ~title:"Fig 4(a): T_down on Clique"
       ~header:[ "size"; "conv(s)"; "loop-dur(s)" ]
       ~rows:(duration_rows clique));
  say "";
  let b_clique =
    size_series ~pool ~make:spec_b_clique_tlong ~seeds:seeds_default
      b_clique_sizes
  in
  print_string
    (Report.table ~title:"Fig 4(b): T_long on B-Clique (2n nodes)"
       ~header:[ "n"; "conv(s)"; "loop-dur(s)" ]
       ~rows:(duration_rows b_clique));
  say "";
  let internet =
    size_series ~pool ~make:spec_internet ~seeds:seeds_default internet_sizes
  in
  print_string
    (Report.table ~title:"Fig 4(c): T_down on Internet-derived"
       ~header:[ "size"; "conv(s)"; "loop-dur(s)" ]
       ~rows:(duration_rows internet));
  say "";
  say
    "Observation 1 check: in T_down the looping duration should sit a few@,\
     seconds under the convergence time; in T_long the gap is ~1 MRAI.";
  say "";
  print_string
    (Report.table ~title:"Fig 6(a): TTL exhaustions & ratio, T_down Clique"
       ~header:[ "size"; "ttl-exh"; "ratio" ]
       ~rows:(exhaustion_rows clique));
  say "";
  print_string
    (Report.table ~title:"Fig 6(b): TTL exhaustions & ratio, T_long B-Clique"
       ~header:[ "n"; "ttl-exh"; "ratio" ]
       ~rows:(exhaustion_rows b_clique));
  say "";
  print_string
    (Report.table
       ~title:"Fig 6(c): TTL exhaustions & ratio, T_down Internet-derived"
       ~header:[ "size"; "ttl-exh"; "ratio" ]
       ~rows:(exhaustion_rows internet));
  say "";
  say
    "Observation 2 check: ratio >65%% for T_down cliques of size >=15, >35%%@,\
     for T_long b-cliques of size >=15.";
  say "";
  series_events ~seeds:seeds_default clique
  + series_events ~seeds:seeds_default b_clique
  + series_events ~seeds:seeds_default internet

(* --- Figures 5 and 7: metric vs MRAI --- *)

let fig5_7 ~pool =
  say "=== Figures 5 & 7: looping vs MRAI value ===@.";
  let clique_mrai =
    Sweep.series ~pool
      ~make:(fun mrai -> { (spec_clique 15) with mrai })
      ~seeds:seeds_default mrai_values
  in
  let b_clique_mrai =
    Sweep.series ~pool
      ~make:(fun mrai -> { (spec_b_clique_tlong 10) with mrai })
      ~seeds:seeds_default mrai_values
  in
  let duration_rows series =
    List.map
      (fun (mrai, (m : Metrics.Run_metrics.t)) ->
        [
          Printf.sprintf "%g" mrai;
          Report.float_cell m.convergence_time;
          Report.float_cell m.overall_looping_duration;
        ])
      series
  in
  let exhaustion_rows series =
    List.map
      (fun (mrai, (m : Metrics.Run_metrics.t)) ->
        [
          Printf.sprintf "%g" mrai;
          string_of_int m.ttl_exhaustions;
          Report.ratio_cell m.looping_ratio;
        ])
      series
  in
  print_string
    (Report.table ~title:"Fig 5(a): T_down on Clique-15 vs MRAI"
       ~header:[ "mrai"; "conv(s)"; "loop-dur(s)" ]
       ~rows:(duration_rows clique_mrai));
  fit_line ~label:"convergence ~" clique_mrai
    ~y:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time);
  fit_line ~label:"looping dur ~" clique_mrai
    ~y:(fun (m : Metrics.Run_metrics.t) -> m.overall_looping_duration);
  say "";
  print_string
    (Report.table ~title:"Fig 5(b): T_long on B-Clique-10 vs MRAI"
       ~header:[ "mrai"; "conv(s)"; "loop-dur(s)" ]
       ~rows:(duration_rows b_clique_mrai));
  fit_line ~label:"convergence ~" b_clique_mrai
    ~y:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time);
  say "";
  print_string
    (Report.table ~title:"Fig 7(a): TTL exhaustions & ratio vs MRAI (Clique-15)"
       ~header:[ "mrai"; "ttl-exh"; "ratio" ]
       ~rows:(exhaustion_rows clique_mrai));
  fit_line ~label:"exhaustions ~" clique_mrai
    ~y:(fun (m : Metrics.Run_metrics.t) -> float_of_int m.ttl_exhaustions);
  say "";
  print_string
    (Report.table
       ~title:"Fig 7(b): TTL exhaustions & ratio vs MRAI (B-Clique-10)"
       ~header:[ "mrai"; "ttl-exh"; "ratio" ]
       ~rows:(exhaustion_rows b_clique_mrai));
  say "";
  say
    "Observation 1/2 checks: convergence, looping duration and exhaustion@,\
     counts all linear in the MRAI (R^2 near 1); the looping ratio column@,\
     stays flat.";
  say "";
  series_events ~seeds:seeds_default clique_mrai
  + series_events ~seeds:seeds_default b_clique_mrai

(* --- Figures 8 and 9: enhancement comparisons --- *)

let enhancement_tables ~pool ~tag ~exh_title ~conv_title ~seeds ~make sizes =
  (* one series per enhancement over all sizes, so the pool sees the
     whole (enhancement x size x seed) space of each series at once *)
  let per_enh =
    List.map
      (fun enh ->
        ( enh,
          Sweep.series ~pool
            ~make:(fun x ->
              { (make (int_of_float x)) with enhancement = enh })
            ~seeds
            (List.map float_of_int sizes) ))
      Bgp.Enhancement.all
  in
  let per_size =
    List.mapi
      (fun i n ->
        (n, List.map (fun (enh, series) -> (enh, snd (List.nth series i))) per_enh))
      sizes
  in
  let header =
    tag :: List.map Bgp.Enhancement.name Bgp.Enhancement.all
  in
  let exh_rows =
    List.map
      (fun (n, ms) ->
        let std =
          match List.assoc Bgp.Enhancement.Standard ms with
          | (m : Metrics.Run_metrics.t) -> Stdlib.max m.ttl_exhaustions 1
        in
        string_of_int n
        :: List.map
             (fun (_, (m : Metrics.Run_metrics.t)) ->
               Printf.sprintf "%.3f"
                 (float_of_int m.ttl_exhaustions /. float_of_int std))
             ms)
      per_size
  in
  let conv_rows =
    List.map
      (fun (n, ms) ->
        string_of_int n
        :: List.map
             (fun (_, (m : Metrics.Run_metrics.t)) ->
               Report.float_cell m.convergence_time)
             ms)
      per_size
  in
  print_string
    (Report.table ~title:exh_title ~header ~rows:exh_rows);
  say "";
  print_string (Report.table ~title:conv_title ~header ~rows:conv_rows);
  say "";
  List.fold_left
    (fun acc (_, series) -> acc + series_events ~seeds series)
    0 per_enh

let fig8 ~pool =
  say "=== Figure 8: T_down convergence enhancements ===@.";
  let ev1 =
    enhancement_tables ~pool ~tag:"size"
      ~exh_title:
        "Fig 8(a): TTL exhaustions normalized by standard BGP (Clique, T_down)"
      ~conv_title:"Fig 8(b): convergence time in seconds (Clique, T_down)"
      ~seeds:seeds_default ~make:spec_clique clique_sizes
  in
  let ev2 =
    enhancement_tables ~pool ~tag:"size"
      ~exh_title:
        "Fig 8(c): TTL exhaustions normalized by standard BGP (Internet, T_down)"
      ~conv_title:"Fig 8(d): convergence time in seconds (Internet, T_down)"
      ~seeds:seeds_default ~make:spec_internet internet_sizes
  in
  say
    "Observation 3 checks: Assertion ~0 on cliques but weaker on Internet@,\
     topologies; Ghost Flushing <=0.2 normalized everywhere; SSLD a mild@,\
     <1 factor; WRATE near or above 1.";
  say "";
  ev1 + ev2

let fig9 ~pool =
  say "=== Figure 9: T_long convergence enhancements ===@.";
  let ev1 =
    enhancement_tables ~pool ~tag:"n"
      ~exh_title:
        "Fig 9(a): TTL exhaustions normalized by standard BGP (B-Clique, T_long)"
      ~conv_title:"Fig 9(b): convergence time in seconds (B-Clique, T_long)"
      ~seeds:seeds_default ~make:spec_b_clique_tlong b_clique_sizes
  in
  let ev2 =
    enhancement_tables ~pool ~tag:"size"
      ~exh_title:
        "Fig 9(c): TTL exhaustions normalized by standard BGP (Internet, T_long)"
      ~conv_title:"Fig 9(d): convergence time in seconds (Internet, T_long)"
      ~seeds:seeds_internet_tlong ~make:spec_internet_tlong internet_sizes
  in
  ev1 + ev2

(* --- sequential vs pooled wall-clock comparison --- *)

let speedup ~pool =
  say "=== Speedup: sequential vs %d-worker pool (Fig 4(a) sweep) ===@."
    (Parallel.jobs pool);
  let sizes = clique_sizes and seeds = seeds_default in
  let sweep ?pool () =
    Sweep.series ?pool
      ~make:(fun x -> spec_clique (int_of_float x))
      ~seeds
      (List.map float_of_int sizes)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let seq_s, seq_series = time (fun () -> sweep ()) in
  let par_s, par_series = time (fun () -> sweep ~pool ()) in
  let strip (x, (m : Metrics.Run_metrics.t)) =
    (x, { m with wall_clock_s = 0. })
  in
  if List.map strip seq_series <> List.map strip par_series then
    say "  WARNING: parallel sweep diverged from sequential results!";
  let events = series_events ~seeds seq_series in
  say "  sequential: %.2f s   pool (%d workers): %.2f s   speedup: %.2fx"
    seq_s (Parallel.jobs pool) par_s
    (if par_s > 0. then seq_s /. par_s else 0.);
  say "";
  (events, (seq_s, par_s))

(* --- ablations (DESIGN.md §6) --- *)

let ablations () =
  say "=== Ablations: model choices behind the reproduction ===@.";
  (* MRAI jitter *)
  let jitter_rows =
    List.map
      (fun (label, jitter) ->
        let config_mrai spec = spec in
        ignore config_mrai;
        let metrics =
          List.map
            (fun seed ->
              let graph = Topo.Generators.clique 10 in
              let config =
                { Bgp.Config.default with mrai_jitter_min = jitter }
              in
              let o =
                Bgp.Routing_sim.run ~config ~graph ~origin:0
                  ~event:Bgp.Routing_sim.Tdown ~seed ()
              in
              Bgp.Routing_sim.convergence_time o)
            seeds_default
        in
        let arr = Array.of_list metrics in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean arr);
          Report.float_cell (Stats.Descriptive.stddev arr);
        ])
      [ ("none (1.0)", 1.0); ("rfc (0.75)", 0.75); ("wide (0.5)", 0.5) ]
  in
  print_string
    (Report.table ~title:"MRAI jitter vs T_down convergence (clique-10)"
       ~header:[ "jitter"; "conv mean(s)"; "conv sd(s)" ]
       ~rows:jitter_rows);
  say "";
  (* processing delay magnitude: the paper sets it two orders above the
     link delay; show MRAI dominance is robust to reducing it *)
  let proc_rows =
    List.map
      (fun (label, lo, hi) ->
        let params =
          { Netcore.Params.default with proc_delay_min = lo; proc_delay_max = hi }
        in
        let m =
          Sweep.over_seeds
            { (spec_clique 10) with params; mrai = 30. }
            ~seeds:seeds_default
        in
        [
          label;
          Report.float_cell m.convergence_time;
          Report.float_cell m.overall_looping_duration;
          Report.ratio_cell m.looping_ratio;
        ])
      [
        ("U(0.1,0.5)s (paper)", 0.1, 0.5);
        ("U(0.01,0.05)s", 0.01, 0.05);
        ("U(0.001,0.005)s", 0.001, 0.005);
      ]
  in
  print_string
    (Report.table
       ~title:
         "Processing delay vs looping (clique-10, T_down): MRAI still dominates"
       ~header:[ "proc delay"; "conv(s)"; "loop-dur(s)"; "ratio" ]
       ~rows:proc_rows);
  say "";
  (* tie-breaking policy *)
  let tie_rows =
    List.map
      (fun (label, prefer) ->
        let policy = { Bgp.Policy.shortest_path with prefer; name = label } in
        let m =
          List.map
            (fun seed ->
              let graph = Topo.Generators.clique 10 in
              let config = { Bgp.Config.default with policy } in
              let o =
                Bgp.Routing_sim.run ~config ~graph ~origin:0
                  ~event:Bgp.Routing_sim.Tdown ~seed ()
              in
              Bgp.Routing_sim.convergence_time o)
            seeds_default
        in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean (Array.of_list m));
        ])
      [
        ( "lowest-id (paper)",
          fun ~self:_ (a : Bgp.Policy.candidate) (b : Bgp.Policy.candidate) ->
            Bgp.As_path.compare a.path b.path );
        ( "highest-id",
          fun ~self:_ (a : Bgp.Policy.candidate) (b : Bgp.Policy.candidate) ->
            let c = compare (Bgp.As_path.length a.path) (Bgp.As_path.length b.path) in
            if c <> 0 then c else Bgp.As_path.compare_lex b.path a.path );
      ]
  in
  print_string
    (Report.table
       ~title:"Tie-breaking direction vs convergence (aggregate trends robust)"
       ~header:[ "tie-break"; "conv(s)" ]
       ~rows:tie_rows);
  say "";
  (* WRATE with a collapsing vs FIFO rate limiter (EXPERIMENTS.md
     deviation 2): a limiter that still transmits superseded states
     keeps stale information flowing and should loop more *)
  let wrate_rows =
    List.concat_map
      (fun (scenario, event) ->
        List.map
          (fun (label, mode) ->
            let results =
              List.map
                (fun seed ->
                  let graph = Topo.Internet.generate ~seed 75 in
                  let survivable_link v =
                    List.find_opt
                      (fun peer ->
                        Topo.Graph.is_connected
                          (Topo.Graph.remove_edge graph v peer))
                      (Topo.Graph.neighbors graph v)
                  in
                  let origin =
                    match event with
                    | `Tdown -> List.hd (Topo.Internet.stub_nodes graph)
                    | `Tlong ->
                        (* lowest-degree node whose link loss is survivable *)
                        List.find
                          (fun v -> survivable_link v <> None)
                          (List.sort
                             (fun a b ->
                               compare (Topo.Graph.degree graph a)
                                 (Topo.Graph.degree graph b))
                             (Topo.Graph.nodes graph))
                  in
                  let config =
                    {
                      Bgp.Config.default with
                      wrate = true;
                      rate_limiter = mode;
                    }
                  in
                  let event =
                    match event with
                    | `Tdown -> Bgp.Routing_sim.Tdown
                    | `Tlong -> (
                        match survivable_link origin with
                        | Some peer ->
                            Bgp.Routing_sim.Tlong { a = origin; b = peer }
                        | None -> assert false)
                  in
                  let o = Bgp.Routing_sim.run ~config ~graph ~origin ~event ~seed () in
                  let fib = Netcore.Trace.fib o.trace in
                  let replay =
                    Traffic.Replay.run ~fib ~origin
                      ~n:(Topo.Graph.n_nodes graph) ~link_delay:0.002 ~ttl:128
                      ~rate:10.
                      ~window:(o.t_fail, o.convergence_end +. 2.)
                      ~seed:(seed + 31) ~ratio_cutoff:o.convergence_end ()
                  in
                  ( Bgp.Routing_sim.convergence_time o,
                    float_of_int replay.exhausted ))
                seeds_default
            in
            let convs = Array.of_list (List.map fst results) in
            let exhs = Array.of_list (List.map snd results) in
            [
              scenario;
              label;
              Report.float_cell (Stats.Descriptive.mean convs);
              Report.float_cell (Stats.Descriptive.mean exhs);
            ])
          [ ("collapse", Bgp.Mrai.Collapse); ("fifo", Bgp.Mrai.Fifo) ])
      [ ("Tdown", `Tdown); ("Tlong", `Tlong) ]
  in
  print_string
    (Report.table
       ~title:"WRATE rate-limiter semantics on internet-75 (deviation 2 probe)"
       ~header:[ "event"; "limiter"; "conv(s)"; "ttl-exh" ]
       ~rows:wrate_rows);
  say ""

(* --- topology provenance (paper footnote 1) --- *)

let provenance () =
  say "=== Ablation: topology provenance (paper footnote 1) ===@.";
  say
    "The same T_down measurement on 48-node graphs from three different@,\
     generators: the trends (looping ~ convergence, high ratio) should@,\
     not depend on the model that produced the topology.";
  say "";
  let families =
    [
      ("internet (ours)", fun seed -> Topo.Internet.generate ~seed 48);
      ("waxman", fun seed -> Topo.Random_graphs.waxman ~seed 48);
      ("glp m=2", fun seed -> Topo.Random_graphs.glp ~m:2 ~seed 48);
    ]
  in
  let rows =
    List.map
      (fun (label, gen) ->
        let samples =
          List.map
            (fun seed ->
              let graph = gen seed in
              let origin = List.hd (Topo.Graph.min_degree_nodes graph) in
              let o =
                Bgp.Routing_sim.run ~graph ~origin ~event:Bgp.Routing_sim.Tdown
                  ~seed ()
              in
              let fib = Netcore.Trace.fib o.trace in
              let replay =
                Traffic.Replay.run ~fib ~origin ~n:(Topo.Graph.n_nodes graph)
                  ~link_delay:0.002 ~ttl:128 ~rate:10.
                  ~window:(o.t_fail, o.convergence_end +. 2.)
                  ~seed:(seed + 5) ~ratio_cutoff:o.convergence_end ()
              in
              ( Bgp.Routing_sim.convergence_time o,
                Traffic.Replay.overall_looping_duration replay,
                Traffic.Replay.looping_ratio replay ))
            seeds_default
        in
        let col f = Array.of_list (List.map f samples) in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean (col (fun (c, _, _) -> c)));
          Report.float_cell (Stats.Descriptive.mean (col (fun (_, d, _) -> d)));
          Report.ratio_cell (Stats.Descriptive.mean (col (fun (_, _, r) -> r)));
        ])
      families
  in
  print_string
    (Report.table ~title:"T_down on 48 nodes across topology generators"
       ~header:[ "generator"; "conv(s)"; "loop-dur(s)"; "ratio" ]
       ~rows);
  say ""

(* --- route-flap damping on link flaps (extension) --- *)

let damping () =
  say "=== Extension: route-flap damping vs a single link flap ===@.";
  say
    "RFC 2439 damping suppresses flapping routes; BGP path exploration@,\
     makes one physical flap look like many route flaps downstream@,\
     (Mao et al.), so the network stays off the recovered path until@,\
     penalties decay.";
  say "";
  let damped_config half_life =
    {
      Bgp.Config.default with
      damping =
        Some
          {
            Bgp.Damping.default_params with
            half_life;
            suppress_threshold = 1.4;
          };
    }
  in
  let scenarios =
    [
      ("b-clique-6 flap 15s", Topo.Generators.b_clique 6, 0, 6, 15.);
      ("b-clique-10 flap 15s", Topo.Generators.b_clique 10, 0, 10, 15.);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, graph, a, b, down_for) ->
        let event = Bgp.Routing_sim.Tshort { a; b; down_for } in
        List.map
          (fun (mech, config) ->
            let convs =
              List.map
                (fun seed ->
                  let o =
                    Bgp.Routing_sim.run ?config ~graph ~origin:0 ~event ~seed ()
                  in
                  Bgp.Routing_sim.convergence_time o)
                seeds_default
            in
            [
              label;
              mech;
              Report.float_cell
                (Stats.Descriptive.mean (Array.of_list convs));
            ])
          [
            ("plain", None);
            ("damped hl=120s", Some (damped_config 120.));
            ("damped hl=300s", Some (damped_config 300.));
          ])
      scenarios
  in
  print_string
    (Report.table ~title:"time to quiesce after one T_short flap"
       ~header:[ "scenario"; "mechanism"; "settle(s)" ]
       ~rows);
  say ""

(* --- multi-prefix churn interference (extension) --- *)

let interference () =
  say "=== Extension: background churn vs victim convergence ===@.";
  say
    "One stub prefix suffers a T_down while other origins flap their own@,\
     prefixes; all updates share each router's serial processing queue.";
  say "";
  let graph = Topo.Internet.generate ~seed:1 48 in
  let victim_origin = List.hd (Topo.Internet.stub_nodes graph) in
  let background =
    List.filteri (fun i _ -> i < 8)
      (List.sort
         (fun a b ->
           compare (Topo.Graph.degree graph b) (Topo.Graph.degree graph a))
         (List.filter (fun v -> v <> victim_origin) (Topo.Graph.nodes graph)))
  in
  let origins = victim_origin :: background in
  let flappers = List.mapi (fun i _ -> i + 1) background in
  let scenarios =
    [
      ("quiet", None);
      ("flap every 60s", Some { Bgp.Mesh_sim.period = 60.; cycles = 8; flappers });
      ("flap every 30s", Some { Bgp.Mesh_sim.period = 30.; cycles = 16; flappers });
      ("flap every 10s", Some { Bgp.Mesh_sim.period = 10.; cycles = 48; flappers });
    ]
  in
  let rows =
    List.map
      (fun (label, churn) ->
        let samples =
          List.map
            (fun seed ->
              let o =
                Bgp.Mesh_sim.run ?churn ~origins ~graph ~victim:0 ~seed ()
              in
              let fib = List.assoc o.victim o.prefixes in
              let replay =
                Traffic.Replay.run ~fib ~origin:victim_origin
                  ~n:(Topo.Graph.n_nodes graph) ~link_delay:0.002 ~ttl:128
                  ~rate:10.
                  ~window:(o.t_fail, o.victim_convergence_end +. 2.)
                  ~seed:(seed + 13)
                  ~ratio_cutoff:o.victim_convergence_end ()
              in
              ( Bgp.Mesh_sim.convergence_time o,
                float_of_int replay.exhausted,
                float_of_int o.background_messages ))
            seeds_default
        in
        let col f = Array.of_list (List.map f samples) in
        [
          label;
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (c, _, _) -> c)));
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (_, e, _) -> e)));
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (_, _, b) -> b)));
        ])
      scenarios
  in
  print_string
    (Report.table
       ~title:"victim T_down on internet-48 under background churn"
       ~header:[ "background"; "victim conv(s)"; "victim ttl-exh"; "bg msgs" ]
       ~rows);
  say ""

(* --- scale workload: internet-like graphs at the Premore sizes plus
   300 nodes (EXPERIMENTS.md §"Scale sweep") --- *)

let scale_sizes = [ 29; 48; 75; 110; 300 ]

let scale_seeds = [ 1; 2; 3 ]

(* One (size, event, seed) cell: resolve the spec, then time the
   routing simulation alone — the packet replay and loop scan that
   Experiment.run adds are per-packet workloads that never touch an AS
   path, so they would only dilute the events/sec signal the AS-path
   representation is measured by. *)
let scale_cell spec =
  let graph, origin, event = Experiment.resolve_raw spec in
  let config =
    Bgp.Config.of_enhancement ~mrai:spec.Experiment.mrai
      spec.Experiment.enhancement
  in
  let before = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let o =
    Bgp.Routing_sim.run ~config ~max_events:spec.Experiment.max_events
      ?max_vtime:spec.Experiment.max_vtime ~graph ~origin ~event
      ~seed:spec.Experiment.seed ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  let after = Gc.quick_stat () in
  let alloc_words =
    after.Gc.minor_words +. after.Gc.major_words -. after.Gc.promoted_words
    -. (before.Gc.minor_words +. before.Gc.major_words
       -. before.Gc.promoted_words)
  in
  (o, wall, alloc_words, after.Gc.top_heap_words)

type scale_row = {
  sc_size : int;
  sc_event : string;
  sc_events : int;
  sc_wall_s : float;
  sc_conv_s : float;
  sc_converged : bool;
  sc_alloc_mw : float;       (* words allocated during the sim, in millions *)
  sc_top_heap_w : int;       (* process peak heap words (Gc.quick_stat) *)
  sc_paths : int;            (* arena occupancy: distinct paths interned *)
}

let scale_table ~pool ~max_events sizes =
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun (label, make) ->
            List.map
              (fun seed ->
                (n, label, { (make n) with Experiment.seed; max_events }))
              scale_seeds)
          [
            ("tdown", spec_internet);
            ("tlong", spec_internet_tlong);
          ])
      sizes
  in
  let results =
    Parallel.map ~pool
      (fun (n, label, spec) ->
        let o, wall, alloc_words, top_heap = scale_cell spec in
        (n, label, o, wall, alloc_words, top_heap))
      cells
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  (* aggregate the seeds of each (size, event) point: rates come from
     summed events over summed wall so slow seeds weigh in proportion *)
  List.concat_map
    (fun n ->
      List.filter_map
        (fun label ->
          let mine =
            List.filter (fun (n', l, _, _, _, _) -> n' = n && l = label) results
          in
          match mine with
          | [] -> None
          | _ ->
              let sum f = List.fold_left (fun acc r -> acc +. f r) 0. mine in
              let events =
                List.fold_left
                  (fun acc (_, _, (o : Bgp.Routing_sim.outcome), _, _, _) ->
                    acc + o.events_executed)
                  0 mine
              in
              Some
                {
                  sc_size = n;
                  sc_event = label;
                  sc_events = events;
                  sc_wall_s = sum (fun (_, _, _, w, _, _) -> w);
                  sc_conv_s =
                    sum (fun (_, _, o, _, _, _) ->
                        Bgp.Routing_sim.convergence_time o)
                    /. float_of_int (List.length mine);
                  sc_converged =
                    List.for_all
                      (fun (_, _, (o : Bgp.Routing_sim.outcome), _, _, _) ->
                        o.converged)
                      mine;
                  sc_alloc_mw =
                    sum (fun (_, _, _, _, a, _) -> a) /. 1e6;
                  sc_top_heap_w =
                    List.fold_left
                      (fun acc (_, _, _, _, _, th) -> Stdlib.max acc th)
                      0 mine;
                  sc_paths =
                    List.fold_left
                      (fun acc (_, _, (o : Bgp.Routing_sim.outcome), _, _, _) ->
                        Stdlib.max acc o.paths_interned)
                      0 mine;
                })
        [ "tdown"; "tlong" ])
    sizes

let scale_row_cells r =
  [
    string_of_int r.sc_size;
    r.sc_event;
    string_of_int r.sc_events;
    Printf.sprintf "%.3f" r.sc_wall_s;
    (if r.sc_wall_s > 0. then
       Printf.sprintf "%.0f" (float_of_int r.sc_events /. r.sc_wall_s)
     else "-");
    Report.float_cell r.sc_conv_s;
    (if r.sc_converged then "yes" else "NO");
    Printf.sprintf "%.1f" r.sc_alloc_mw;
    Printf.sprintf "%.1f" (float_of_int r.sc_top_heap_w /. 1e6);
    string_of_int r.sc_paths;
  ]

let scale_header =
  [
    "n"; "event"; "events"; "wall(s)"; "ev/s"; "conv(s)"; "conv?"; "alloc-Mw";
    "heap-Mw"; "paths";
  ]

let scale_group ~pool ~smoke () =
  let sizes = if smoke then [ 110 ] else scale_sizes in
  (* the budget bounds a runaway policy dispute, not a healthy run:
     T_down/T_long on these graphs drain in tens of thousands of
     events *)
  let max_events = 5_000_000 in
  say "=== Scale: T_down/T_long on internet-like graphs (seeds {%s}) ===@."
    (String.concat "," (List.map string_of_int scale_seeds));
  let rows = scale_table ~pool ~max_events sizes in
  print_string
    (Report.table
       ~title:
         (if smoke then "scale smoke (n=110, bounded events)"
          else "scale sweep: routing-sim throughput")
       ~header:scale_header
       ~rows:(List.map scale_row_cells rows));
  say "";
  (match List.filter (fun r -> not r.sc_converged) rows with
  | [] -> ()
  | bad ->
      say "NON-CONVERGED points: %s"
        (String.concat ", "
           (List.map (fun r -> Printf.sprintf "%d/%s" r.sc_size r.sc_event) bad));
      if smoke then exit 1);
  List.fold_left (fun acc r -> acc + r.sc_events) 0 rows

(* --- sustained churn: long-horizon service-mode throughput ---

   One persistent simulation driven through flap epochs by the churn
   engine (streaming loop detection, arena compaction every 8 epochs,
   no checkpoints).  The full groups run to 10 M engine events and
   gate two regressions: throughput must stay at or above the one-shot
   scale workload's recorded floor (BENCH_e3527b6: 446 k ev/s), and
   the peak heap must stay flat across the horizon — bounded-memory
   operation is the point of the service mode.  The churn-digest
   variant keeps the per-epoch digest chain on (folding Obs.Binary
   frames), measuring the fully-audited fast path. *)

let churn_floor_ev_s = 446_000.

let churn_group ~smoke ~digest () =
  let n = 110 in
  let graph = Topo.Internet.generate ~seed:1 n in
  let origin = List.hd (Topo.Graph.min_degree_nodes graph) in
  let target_events = if smoke then 200_000 else 10_000_000 in
  let workload = Churn.Workload.make ~epoch_len:300. ~flap_rate:8. () in
  let cfg =
    Churn.Driver.make ~seed:1 ~workload ~epochs:max_int ~target_events
      ~compact_every:8 ~digest ~graph ~origin ()
  in
  say
    "=== Churn: sustained service mode on internet-%d (target %d events, \
     digest %s) ===@."
    n target_events
    (if digest then "on" else "off");
  (* peak-heap sample once the run is warm (10 % of the horizon, past
     GC ramp-up); the flat-heap gate compares the end-of-run peak
     against it *)
  let heap_early = ref None in
  let events_seen = ref 0 in
  let on_epoch (e : Churn.Driver.epoch_info) =
    events_seen := !events_seen + e.Churn.Driver.ei_events;
    if !heap_early = None && !events_seen >= target_events / 10 then
      heap_early := Some (Gc.quick_stat ()).Gc.top_heap_words
  in
  let t0 = Unix.gettimeofday () in
  let r = Churn.Driver.run ~on_epoch cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let heap_final = (Gc.quick_stat ()).Gc.top_heap_words in
  let ev_s =
    if wall > 0. then float_of_int r.Churn.Driver.events_executed /. wall
    else 0.
  in
  let t = r.Churn.Driver.loop_totals in
  (match r.Churn.Driver.chain_digest with
  | Some d -> say "chain-digest %s" d
  | None -> ());
  print_string
    (Report.table
       ~title:
         (if smoke then "churn smoke"
          else if digest then "churn: 10M-event horizon (digest chain on)"
          else "churn: 10M-event horizon")
       ~header:
         [
           "epochs"; "events"; "wall(s)"; "ev/s"; "fib-chg"; "loops";
           "arena"; "arena-peak"; "heap-Mw";
         ]
       ~rows:
         [
           [
             string_of_int r.Churn.Driver.epochs_completed;
             string_of_int r.Churn.Driver.events_executed;
             Printf.sprintf "%.3f" wall;
             Printf.sprintf "%.0f" ev_s;
             string_of_int r.Churn.Driver.counters.Obs.Counters.s_fib_changes;
             string_of_int t.Loopscan.Stream.loops_started;
             string_of_int r.Churn.Driver.arena_size;
             string_of_int r.Churn.Driver.arena_peak;
             Printf.sprintf "%.1f" (float_of_int heap_final /. 1e6);
           ];
         ]);
  say "";
  (match r.Churn.Driver.status with
  | Churn.Driver.Completed -> ()
  | s ->
      say "churn did not complete: %s" (Churn.Driver.status_name s);
      exit 1);
  if not smoke then begin
    (match !heap_early with
    | Some early when heap_final > early + (early / 2) ->
        say
          "FLAT-HEAP GATE FAILED: peak heap grew %.1f Mw (10%% mark) -> %.1f \
           Mw (end)"
          (float_of_int early /. 1e6)
          (float_of_int heap_final /. 1e6);
        exit 1
    | Some early ->
        say "flat-heap gate: %.1f Mw (10%% mark) -> %.1f Mw (end)  OK"
          (float_of_int early /. 1e6)
          (float_of_int heap_final /. 1e6)
    | None -> say "flat-heap gate: run too short to sample (skipped)");
    if ev_s < churn_floor_ev_s then begin
      say "THROUGHPUT GATE FAILED: %.0f ev/s < %.0f ev/s floor" ev_s
        churn_floor_ev_s;
      exit 1
    end
    else say "throughput gate: %.0f ev/s >= %.0f ev/s floor  OK" ev_s
           churn_floor_ev_s
  end;
  say "";
  r.Churn.Driver.events_executed

(* --- full-mesh multi-prefix workload (ROADMAP item 2) ---

   Every AS on internet-110 originates its own prefix — 110 RIB shards
   per speaker keyed by packed (prefix_id, peer), one batched MRAI
   timer per peer — over one arena and one event stream.  After the
   shared warm-up the min-degree stub's prefix is withdrawn while 30
   background origins flap for 20 cycles, so each seed drives millions
   of engine events through the per-prefix decision process
   (EXPERIMENTS.md §"Full-mesh workload"). *)

let mesh_seeds = [ 1; 2; 3 ]

let mesh_group ~smoke () =
  let n = if smoke then 20 else 110 in
  let graph = Topo.Internet.generate ~seed:1 n in
  let victim = List.hd (Topo.Graph.min_degree_nodes graph) in
  let flappers =
    (* 30 deterministic background flappers (origin index = node id) *)
    List.filter (fun i -> i <> victim) (List.init n Fun.id)
    |> List.filteri (fun i _ -> i < if smoke then 4 else 30)
  in
  let churn =
    {
      Bgp.Mesh_sim.period = 60.;
      cycles = (if smoke then 2 else 20);
      flappers;
    }
  in
  say
    "=== Mesh: full-mesh T_down + background flaps on internet-%d (%d \
     prefixes, seeds {%s}) ===@."
    n n
    (String.concat "," (List.map string_of_int mesh_seeds));
  let cells =
    List.map
      (fun seed ->
        let before = Gc.quick_stat () in
        let t0 = Unix.gettimeofday () in
        let o = Bgp.Mesh_sim.run ~churn ~graph ~victim ~seed () in
        let wall = Unix.gettimeofday () -. t0 in
        let after = Gc.quick_stat () in
        let alloc_words =
          after.Gc.minor_words +. after.Gc.major_words
          -. after.Gc.promoted_words
          -. (before.Gc.minor_words +. before.Gc.major_words
             -. before.Gc.promoted_words)
        in
        (seed, o, wall, alloc_words, after.Gc.top_heap_words))
      mesh_seeds
  in
  let rows =
    List.map
      (fun (seed, (o : Bgp.Mesh_sim.outcome), wall, alloc_words, top_heap) ->
        let until = o.victim_convergence_end in
        let loops, loop_s =
          List.fold_left
            (fun (c, s) (_, r) ->
              let a = Loopscan.Scanner.aggregate r ~until in
              (c + a.count, s +. a.total_loop_seconds))
            (0, 0.) o.loop_reports
        in
        [
          string_of_int seed;
          string_of_int (List.length o.prefixes);
          string_of_int o.events_executed;
          Printf.sprintf "%.3f" wall;
          (if wall > 0. then
             Printf.sprintf "%.0f" (float_of_int o.events_executed /. wall)
           else "-");
          Report.float_cell (Bgp.Mesh_sim.convergence_time o);
          (if o.converged then "yes" else "NO");
          string_of_int loops;
          Printf.sprintf "%.1f" loop_s;
          Printf.sprintf "%.1f" (alloc_words /. 1e6);
          Printf.sprintf "%.1f" (float_of_int top_heap /. 1e6);
          string_of_int o.paths_interned;
        ])
      cells
  in
  print_string
    (Report.table
       ~title:
         (if smoke then "mesh smoke (internet-20, 4 flappers, 2 cycles)"
          else "mesh: internet-110 x 110 prefixes, 30 flappers x 20 cycles")
       ~header:
         [
           "seed"; "prefixes"; "events"; "wall(s)"; "ev/s"; "conv(s)";
           "conv?"; "loops"; "loop-s"; "alloc-Mw"; "heap-Mw"; "paths";
         ]
       ~rows);
  say "";
  (match
     List.filter (fun (_, (o : Bgp.Mesh_sim.outcome), _, _, _) -> not o.converged) cells
   with
  | [] -> ()
  | bad ->
      say "NON-CONVERGED seeds: %s"
        (String.concat ", "
           (List.map (fun (s, _, _, _, _) -> string_of_int s) bad));
      exit 1);
  List.fold_left
    (fun acc (_, (o : Bgp.Mesh_sim.outcome), _, _, _) ->
      acc + o.events_executed)
    0 cells

(* --- observability counter registries (DESIGN.md §10) --- *)

let counters_group ~pool =
  say "=== Counters: observability registries over the golden fixtures ===@.";
  say
    "Each run carries a counters-only bus (no sink, so no event values@,\
     are ever allocated); per-seed snapshots are merged across the@,\
     worker pool the same way Parallel sweeps gather metrics.";
  say "";
  let seeds = seeds_default in
  let batch =
    List.concat_map
      (fun (f : Golden.fixture) ->
        List.map (fun seed -> (f.name, { f.spec with seed })) seeds)
      Golden.fixtures
  in
  let results =
    Parallel.map ~pool
      (fun (name, spec) ->
        let c = Obs.Counters.create () in
        let obs = Obs.Bus.create ~counters:c () in
        let r = Experiment.run ~obs spec in
        (name, Obs.Counters.snapshot c, r.metrics.events_executed))
      batch
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  let merged name =
    match List.filter_map
            (fun (n, s, _) -> if n = name then Some s else None)
            results
    with
    | [] -> None
    | s :: rest -> Some (List.fold_left Obs.Counters.merge s rest)
  in
  let rows =
    List.filter_map
      (fun (f : Golden.fixture) ->
        match merged f.name with
        | None -> None
        | Some (s : Obs.Counters.snapshot) ->
            Some
              [
                f.name;
                string_of_int s.s_updates_sent;
                string_of_int s.s_updates_recv;
                string_of_int (s.s_withdrawals_sent + s.s_withdrawals_recv);
                string_of_int s.s_decision_runs;
                string_of_int s.s_fib_changes;
                string_of_int s.s_mrai_fires;
                string_of_int s.s_loops_detected;
                string_of_int s.s_events_executed;
              ])
      Golden.fixtures
  in
  print_string
    (Report.table
       ~title:
         (Printf.sprintf "merged counters over seeds {%s}"
            (String.concat "," (List.map string_of_int seeds)))
       ~header:
         [
           "fixture"; "sent"; "recv"; "wdraw"; "decisions"; "fib"; "mrai";
           "loops"; "events";
         ]
       ~rows);
  say "";
  (match List.map (fun (_, s, _) -> s) results with
  | [] -> ()
  | s :: rest ->
      say "grand total across the batch:";
      say "%a" Obs.Counters.pp
        { (List.fold_left Obs.Counters.merge s rest) with s_nodes = [] });
  List.fold_left (fun acc (_, _, ev) -> acc + ev) 0 results

(* --- Bechamel micro-benchmarks --- *)

let micro () =
  say "=== Micro-benchmarks (Bechamel) ===@.";
  let open Bechamel in
  let test_event_queue =
    Test.make ~name:"event-queue: 1k push+pop"
      (Staged.stage (fun () ->
           let q = Dessim.Event_queue.create () in
           for i = 0 to 999 do
             Dessim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 997)) i
           done;
           while not (Dessim.Event_queue.is_empty q) do
             ignore (Dessim.Event_queue.pop q)
           done))
  in
  let test_as_path =
    let p = Bgp.As_path.of_list [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] in
    Test.make ~name:"as-path: contains+prepend+compare"
      (Staged.stage (fun () ->
           ignore (Bgp.As_path.contains p 5 : bool);
           let q = Bgp.As_path.prepend 10 p in
           ignore (Bgp.As_path.compare q p : int)))
  in
  let test_peer_table =
    let table = Bgp.Peer_table.create (List.init 64 (fun i -> i * 3)) in
    Test.make ~name:"peer-table: 64-peer mem hit+miss"
      (Staged.stage (fun () ->
           ignore (Bgp.Peer_table.mem table 93 : bool);
           ignore (Bgp.Peer_table.mem table 94 : bool)))
  in
  let test_fib_lookup =
    let fib = Netcore.Fib_history.create ~n:2 in
    for i = 0 to 99 do
      Netcore.Fib_history.record fib ~time:(float_of_int i) ~node:0
        ~next_hop:(if i mod 2 = 0 then Some 1 else None)
    done;
    Test.make ~name:"fib-history: lookup among 100 changes"
      (Staged.stage (fun () ->
           ignore (Netcore.Fib_history.lookup fib ~node:0 ~time:50.5 : int option)))
  in
  let test_walk =
    let fib = Netcore.Fib_history.create ~n:10 in
    for v = 1 to 9 do
      Netcore.Fib_history.record fib ~time:0. ~node:v ~next_hop:(Some (v - 1))
    done;
    let plane = Traffic.Forwarder.compile fib in
    Test.make ~name:"forwarder: 9-hop walk"
      (Staged.stage (fun () ->
           ignore
             (Traffic.Forwarder.walk plane ~origin:0 ~link_delay:0.002 ~ttl:128
                ~src:9 ~send_time:1.)))
  in
  let test_routing_sim =
    let graph = Topo.Generators.clique 5 in
    Test.make ~name:"routing-sim: clique-5 T_down end-to-end"
      (Staged.stage (fun () ->
           ignore
             (Bgp.Routing_sim.run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown
                ~seed:1 ())))
  in
  let tests =
    [
      test_event_queue; test_as_path; test_peer_table; test_fib_lookup;
      test_walk; test_routing_sim;
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> say "  %-42s %12.1f ns/run" name est
        | Some _ | None -> say "  %-42s (no estimate)" name)
      results
  in
  List.iter benchmark tests;
  say ""

(* --- group registry, timing and the JSON perf record --- *)

type group_report = {
  name : string;
  wall_s : float;
  events : int;  (* 0 = the group does not count simulator events *)
  alloc_words : float;  (* words allocated on the main domain *)
  peak_heap_words : int;  (* process top_heap_words after the group *)
}

(* speedup group's sequential/parallel timings, when it ran *)
let speedup_times : (float * float) option ref = ref None

(* Per-group warm-up, run before the driver snapshots Gc stats and
   starts the wall clock: one small representative simulation that
   settles allocator and code-path ramp-up, so a group's recorded
   alloc_words/peak_heap_words delta covers only the measured
   iterations.  (Without this the first group of a bench invocation
   absorbed all the one-time warm-up allocation into its numbers.)
   The single-prefix warm-up covers every classic group; the mesh
   group warms the multi-prefix path instead — its per-prefix RIB
   shards and batched MRAI allocate on different code paths. *)
let warm_single () =
  ignore
    (Bgp.Routing_sim.run
       ~graph:(Topo.Generators.clique 5)
       ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 ()
      : Bgp.Routing_sim.outcome)

let warm_mesh () =
  ignore
    (Bgp.Mesh_sim.run
       ~graph:(Topo.Generators.clique 5)
       ~victim:0 ~seed:1 ()
      : Bgp.Mesh_sim.outcome)

let groups =
  [
    ("fig4", (warm_single, fun ~pool -> fig4_6 ~pool));
    ("fig5", (warm_single, fun ~pool -> fig5_7 ~pool));
    ("fig8", (warm_single, fun ~pool -> fig8 ~pool));
    ("fig9", (warm_single, fun ~pool -> fig9 ~pool));
    ( "speedup",
      ( warm_single,
        fun ~pool ->
          let events, times = speedup ~pool in
          speedup_times := Some times;
          events ) );
    ("ablations", (warm_single, fun ~pool:_ -> ablations (); 0));
    ("provenance", (warm_single, fun ~pool:_ -> provenance (); 0));
    ("damping", (warm_single, fun ~pool:_ -> damping (); 0));
    ("interference", (warm_single, fun ~pool:_ -> interference (); 0));
    ("counters", (warm_single, fun ~pool -> counters_group ~pool));
    ("scale", (warm_single, fun ~pool -> scale_group ~pool ~smoke:false ()));
    ("scale-smoke", (warm_single, fun ~pool -> scale_group ~pool ~smoke:true ()));
    ("churn", (warm_single, fun ~pool:_ -> churn_group ~smoke:false ~digest:false ()));
    ("churn-digest", (warm_single, fun ~pool:_ -> churn_group ~smoke:false ~digest:true ()));
    ("churn-smoke", (warm_single, fun ~pool:_ -> churn_group ~smoke:true ~digest:false ()));
    ("mesh", (warm_mesh, fun ~pool:_ -> mesh_group ~smoke:false ()));
    ("mesh-smoke", (warm_mesh, fun ~pool:_ -> mesh_group ~smoke:true ()));
    ("micro", (warm_single, fun ~pool:_ -> micro (); 0));
  ]

let git_revision () =
  match
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  with
  | Some rev -> rev
  | None -> "unknown"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* BENCH_<rev>.json schema: see EXPERIMENTS.md §"Bench perf records". *)
let write_json ~path ~jobs reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"bgpsim-bench/4\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"revision\": \"%s\",\n" (json_escape (git_revision ())));
  Buffer.add_string buf
    (Printf.sprintf "  \"generated_unix\": %.0f,\n" (Unix.gettimeofday ()));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"groups\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"wall_s\": %.3f, \"events\": %d, \
            \"events_per_sec\": %s, \"alloc_words\": %.0f, \
            \"peak_heap_words\": %d}%s\n"
           (json_escape r.name) r.wall_s r.events
           (if r.events > 0 && r.wall_s > 0. then
              Printf.sprintf "%.0f" (float_of_int r.events /. r.wall_s)
            else "null")
           r.alloc_words r.peak_heap_words
           (if i = List.length reports - 1 then "" else ",")))
    reports;
  Buffer.add_string buf "  ],\n";
  (match !speedup_times with
  | Some (seq_s, par_s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"speedup\": {\"seq_wall_s\": %.3f, \"par_wall_s\": %.3f, \
            \"ratio\": %.3f, \"jobs\": %d}\n"
           seq_s par_s
           (if par_s > 0. then seq_s /. par_s else 0.)
           jobs)
  | None -> Buffer.add_string buf "  \"speedup\": null\n");
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  say "wrote %s" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse names jobs json = function
    | [] -> (List.rev names, jobs, json)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> parse names (Some j) json rest
        | _ ->
            Format.eprintf "--jobs expects a positive integer, got %S@." v;
            exit 2)
    | "--json" :: path :: rest -> parse names jobs (Some path) rest
    | ("--jobs" | "--json") :: [] ->
        Format.eprintf "missing value for final flag@.";
        exit 2
    | name :: rest -> parse (name :: names) jobs json rest
  in
  let requested, jobs, json_path = parse [] None None args in
  let requested =
    if requested = [] then List.map fst groups else requested
  in
  let aliases = [ ("fig6", "fig4"); ("fig7", "fig5"); ("all", "") ] in
  let wanted name =
    match List.assoc_opt name aliases with
    | Some "" -> List.map fst groups
    | Some canonical -> [ canonical ]
    | None -> [ name ]
  in
  let requested = List.concat_map wanted requested in
  let pool = Parallel.create ?jobs () in
  say "sweep pool: %d worker(s) (host recommends %d domains)@."
    (Parallel.jobs pool)
    (Domain.recommended_domain_count ());
  let reports = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name groups with
      | Some (warm, f) ->
          (* per-group allocation/heap sample on the main domain; pooled
             groups allocate in their workers too, so this is a floor,
             not a total (EXPERIMENTS.md §"Bench perf records").  The
             warm-up run happens before the snapshot so its allocations
             never count against the group. *)
          warm ();
          let before = Gc.quick_stat () in
          let t0 = Unix.gettimeofday () in
          let events = f ~pool in
          let wall_s = Unix.gettimeofday () -. t0 in
          let after = Gc.quick_stat () in
          let allocated (s : Gc.stat) =
            s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
          in
          let alloc_words = allocated after -. allocated before in
          say "[%s] %.2f s wall%s@." name wall_s
            (if events > 0 then
               Printf.sprintf ", %d events (%.0f ev/s)" events
                 (float_of_int events /. wall_s)
             else "");
          reports :=
            {
              name;
              wall_s;
              events;
              alloc_words;
              peak_heap_words = after.Gc.top_heap_words;
            }
            :: !reports
      | None ->
          Format.eprintf "unknown bench group %S (known: %s, fig6, fig7, all)@."
            name
            (String.concat ", " (List.map fst groups)))
    requested;
  Parallel.shutdown pool;
  match json_path with
  | Some path -> write_json ~path ~jobs:(Parallel.jobs pool) (List.rev !reports)
  | None -> ()

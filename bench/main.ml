(* The extension harness: ablations of the model choices called out in
   DESIGN.md §6 and the extension studies (topology provenance,
   damping, churn interference, counters).  The paper's Figures 4-9
   are `bgpsim figures`; performance is measured by perfbench/.

     dune exec bench/main.exe                         # every group
     dune exec bench/main.exe -- damping              # one group
     dune exec bench/main.exe -- --jobs 4 counters    # runs on 4 domains

   The counters group runs its (fixture, seed) batch through
   Parallel.run on --jobs domains, the calling one included (default
   1); results are identical to a sequential run by construction
   (DESIGN.md §9).  An unknown group name exits 2 before any group
   runs. *)

open Bgpsim

let seeds_default = [ 1; 2; 3 ]

let say fmt = Format.printf (fmt ^^ "@.")

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
            { (Experiment.default_spec (Clique 10)) with params; mrai = 30. }
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
          fun ~self:_ _ a _ b -> Bgp.As_path.compare a b );
        ( "highest-id",
          fun ~self:_ _ a _ b ->
            let c = compare (Bgp.As_path.length a) (Bgp.As_path.length b) in
            if c <> 0 then c else Bgp.As_path.compare_lex b a );
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
                  (* the generator always connects, so a link's loss is
                     survivable iff the link is not a bridge *)
                  let bridges = Hashtbl.create 16 in
                  List.iter
                    (fun e -> Hashtbl.replace bridges e ())
                    (Topo.Graph.bridges graph);
                  let survivable_link v =
                    List.find_opt
                      (fun peer ->
                        not (Hashtbl.mem bridges (min v peer, max v peer)))
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

(* --- observability counter registries (DESIGN.md §10) --- *)

let counters_group ~jobs =
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
    Parallel.run ~jobs
      (List.map
         (fun (name, spec) () ->
           let c = Obs.Counters.create () in
           let obs = Obs.Bus.create ~counters:c () in
           ignore (Experiment.run ~obs spec : Experiment.run);
           (name, Obs.Counters.snapshot c))
         batch)
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  let merged name =
    match List.filter_map
            (fun (n, s) -> if n = name then Some s else None)
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
  match List.map snd results with
  | [] -> ()
  | s :: rest ->
      say "grand total across the batch:";
      say "%a" Obs.Counters.pp
        { (List.fold_left Obs.Counters.merge s rest) with s_nodes = [] }

(* --- group registry and entry point --- *)

let groups =
  [
    ("ablations", fun ~jobs:_ -> ablations ());
    ("provenance", fun ~jobs:_ -> provenance ());
    ("damping", fun ~jobs:_ -> damping ());
    ("interference", fun ~jobs:_ -> interference ());
    ("counters", counters_group);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse names jobs = function
    | [] -> (List.rev names, jobs)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 0 -> parse names j rest
        | _ ->
            Format.eprintf "--jobs expects an integer >= 0, got %S@." v;
            exit 2)
    | [ "--jobs" ] ->
        Format.eprintf "missing value for --jobs@.";
        exit 2
    | name :: rest -> parse (name :: names) jobs rest
  in
  let requested, jobs = parse [] 1 args in
  let requested =
    List.concat_map
      (function "all" -> List.map fst groups | name -> [ name ])
      (if requested = [] then [ "all" ] else requested)
  in
  (match
     List.filter (fun name -> not (List.mem_assoc name groups)) requested
   with
  | [] -> ()
  | unknown ->
      Format.eprintf "unknown bench group(s) %s (known: %s, all)@."
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst groups));
      exit 2);
  say "jobs: %d domain(s), the calling one included (host recommends %d)@."
    (Stdlib.max 1 jobs)
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name groups) ~jobs;
      say "[%s] %.2f s wall@." name (Unix.gettimeofday () -. t0))
    requested

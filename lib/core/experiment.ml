type topology =
  | Clique of int
  | B_clique of int
  | Internet of int
  | Waxman of int
  | Glp of int
  | Custom of { graph : Topo.Graph.t; origin : int; name : string }

type event_spec =
  | Tdown
  | Tlong
  | Tlong_link of int * int
  | Tup
  | Trecover
  | Trecover_link of int * int
  | Scenario of Faults.Scenario.t

type spec = {
  topology : topology;
  event : event_spec;
  enhancement : Bgp.Enhancement.t;
  mrai : float;
  seed : int;
  params : Netcore.Params.t;
  replay_tail : float;
  invariants : Faults.Invariant.mode;
  max_events : int;
  max_vtime : float option;
  preflight : Analysis.Preflight.mode;
}

let default_spec topology =
  {
    topology;
    event = Tdown;
    enhancement = Bgp.Enhancement.Standard;
    mrai = 30.;
    seed = 1;
    params = Netcore.Params.default;
    replay_tail = 2.;
    invariants = Faults.Invariant.Off;
    max_events = 20_000_000;
    max_vtime = None;
    preflight = Analysis.Preflight.Off;
  }

let event_name = function
  | Tdown -> "tdown"
  | Tlong | Tlong_link _ -> "tlong"
  | Tup -> "tup"
  | Trecover | Trecover_link _ -> "trecover"
  | Scenario s -> "scenario:" ^ Faults.Scenario.name s

let topology_name = function
  | Clique n -> Printf.sprintf "clique-%d" n
  | B_clique n -> Printf.sprintf "b-clique-%d" n
  | Internet n -> Printf.sprintf "internet-%d" n
  | Waxman n -> Printf.sprintf "waxman-%d" n
  | Glp n -> Printf.sprintf "glp-%d" n
  | Custom { name; _ } -> name

let node_count = function
  | Clique n -> n
  | B_clique n -> 2 * n
  | Internet n | Waxman n | Glp n -> n
  | Custom { graph; _ } -> Topo.Graph.n_nodes graph

(* [survival_test graph u v]: does the graph stay connected without
   the link (u, v)?  That holds iff the graph is connected and the link
   is not a bridge, so one O(n + m) bridge pass, run when [graph] alone
   is applied, answers it for every link. *)
let survival_test graph =
  if not (Topo.Graph.is_connected graph) then fun _ _ -> false
  else begin
    let bridges = Hashtbl.create 16 in
    List.iter
      (fun e -> Hashtbl.replace bridges e ())
      (Topo.Graph.bridges graph);
    fun u v -> not (Hashtbl.mem bridges (Stdlib.min u v, Stdlib.max u v))
  end

(* Like [resolve] but without the scenario sanity check, so the static
   pre-flight can diagnose a broken script (with every issue collected)
   before anything raises. *)
let resolve_raw spec =
  let rng = Dessim.Rng.create ~seed:(spec.seed + 0x7_0b0) in
  let graph =
    match spec.topology with
    | Clique n -> Topo.Generators.clique n
    | B_clique n -> Topo.Generators.b_clique n
    | Internet n -> Topo.Internet.generate ~seed:spec.seed n
    | Waxman n -> Topo.Random_graphs.waxman ~seed:spec.seed n
    | Glp n -> Topo.Random_graphs.glp ~m:2 ~seed:spec.seed n
    | Custom { graph; _ } -> graph
  in
  let test = lazy (survival_test graph) in
  let survives u v = Lazy.force test u v in
  let origin =
    match spec.topology with
    | Clique _ | B_clique _ -> 0
    | Custom { origin; _ } -> origin
    | Internet _ | Waxman _ | Glp _ ->
        let candidates =
          match spec.event with
          | Tlong | Trecover ->
              (* the link event must leave the destination reachable
                 without it: among the nodes with a survivable link,
                 keep the lowest-degree ones (stubs are often
                 single-homed and thus excluded) *)
              let survivable =
                List.filter
                  (fun v ->
                    List.exists (survives v) (Topo.Graph.neighbors graph v))
                  (Topo.Graph.nodes graph)
              in
              let min_degree =
                List.fold_left
                  (fun acc v -> Stdlib.min acc (Topo.Graph.degree graph v))
                  max_int survivable
              in
              List.filter
                (fun v -> Topo.Graph.degree graph v = min_degree)
                survivable
          | Tdown | Tup | Tlong_link _ | Trecover_link _ | Scenario _ ->
              Topo.Graph.min_degree_nodes graph
        in
        if candidates = [] then
          invalid_arg "Experiment.resolve: no viable destination AS";
        Dessim.Rng.pick rng candidates
  in
  (* canonical link for the Tlong/Trecover families: B-Clique uses the
     paper's (0, n) core link, other topologies a seed-chosen
     destination link whose loss keeps the graph connected *)
  let canonical_link () =
    match spec.topology with
    | B_clique n -> (0, n)
    | Clique _ | Internet _ | Waxman _ | Glp _ | Custom _ -> (
        match
          List.filter (survives origin) (Topo.Graph.neighbors graph origin)
        with
        | [] ->
            invalid_arg
              "Experiment.resolve: no destination link survives the event"
        | peers -> (origin, Dessim.Rng.pick rng peers))
  in
  let event =
    match spec.event with
    | Tdown -> Bgp.Routing_sim.Tdown
    | Tup -> Bgp.Routing_sim.Tup
    | Tlong_link (a, b) -> Bgp.Routing_sim.Tlong { a; b }
    | Trecover_link (a, b) -> Bgp.Routing_sim.Trecover { a; b }
    | Tlong ->
        let a, b = canonical_link () in
        Bgp.Routing_sim.Tlong { a; b }
    | Trecover ->
        let a, b = canonical_link () in
        Bgp.Routing_sim.Trecover { a; b }
    | Scenario s -> Bgp.Routing_sim.Scenario s
  in
  (graph, origin, event)

let resolve spec =
  let ((graph, _, _) as resolved) = resolve_raw spec in
  (match spec.event with
  | Scenario s -> Faults.Scenario.validate s ~graph
  | Tdown | Tup | Tlong | Trecover | Tlong_link _ | Trecover_link _ -> ());
  resolved

let analyze ?max_paths ?policy ?gr_rel spec =
  let graph, origin, _ = resolve_raw spec in
  let policy =
    match policy with
    | Some p -> p
    | None ->
        (Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement)
          .Bgp.Config.policy
  in
  (* what the spec statically determines: the clique hint enables the
     closed-form rank bound, and only the monotone T_down/T_up families
     yield a [Certified] time bound *)
  let clique =
    match spec.topology with Clique n when n >= 2 -> Some n | _ -> None
  in
  let certified_event =
    match spec.event with
    | Tdown | Tup -> true
    | Tlong | Tlong_link _ | Trecover | Trecover_link _ | Scenario _ -> false
  in
  let scenario = match spec.event with Scenario s -> Some s | _ -> None in
  Analysis.Preflight.analyze ?max_paths ?gr_rel ?scenario ?clique
    ~certified_event ~graph ~policy ~origin ~mrai:spec.mrai
    ~params:spec.params ()

type run = {
  spec : spec;
  outcome : Bgp.Routing_sim.outcome;
  replay : Traffic.Replay.result;
  loops : Loopscan.Scanner.report;
  metrics : Metrics.Run_metrics.t;
}

(* Analysis fallbacks for runs cut off by a budget: a truncated FIB
   history can leave the replay window degenerate or the scanner's
   starting state inside a loop, and both raise [Invalid_argument].
   Such a run must still produce (timed) metrics — dropping it would
   bias sweeps toward the well-behaved runs — so the analyses degrade
   to empty results instead of propagating. *)
let empty_replay : Traffic.Replay.result =
  {
    sent = 0;
    sent_for_ratio = 0;
    delivered = 0;
    unreachable = 0;
    exhausted = 0;
    first_exhaustion = None;
    last_exhaustion = None;
    exhaustion_times = [||];
  }

let empty_loops : Loopscan.Scanner.report =
  {
    loops = [];
    first_loop_birth = None;
    last_loop_death = None;
    max_concurrent = 0;
  }

let run ?obs ?profile spec =
  let wall_start = Unix.gettimeofday () in
  let graph, origin, event = resolve_raw spec in
  (* a strict pre-flight rejects a statically doomed instance here,
     before a single event is scheduled *)
  (match spec.preflight with
  | Analysis.Preflight.Strict -> Analysis.Preflight.gate (analyze spec)
  | Analysis.Preflight.Off | Analysis.Preflight.Warn -> ());
  let outcome =
    Bgp.Routing_sim.run ~params:spec.params
      ~config:(Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement)
      ~max_events:spec.max_events ?max_vtime:spec.max_vtime
      ~invariants:spec.invariants ?obs ?profile ~graph ~origin ~event
      ~seed:spec.seed ()
  in
  let fib = Netcore.Trace.fib outcome.trace in
  let window_end = outcome.convergence_end +. spec.replay_tail in
  let tolerant f fallback =
    if outcome.converged then f ()
    else try f () with Invalid_argument _ -> fallback
  in
  let replay =
    tolerant
      (fun () ->
        Traffic.Replay.run ~fib ~origin ~n:(Topo.Graph.n_nodes graph)
          ~link_delay:spec.params.link_delay ~ttl:spec.params.ttl
          ~rate:spec.params.pkt_rate
          ~window:(outcome.t_fail, window_end)
          ~seed:(spec.seed + 0x7ea) ~ratio_cutoff:outcome.convergence_end ())
      empty_replay
  in
  let loops =
    tolerant
      (fun () -> Loopscan.Scanner.scan ?obs ~fib ~origin ~from:outcome.t_fail ())
      empty_loops
  in
  let metrics =
    Metrics.Run_metrics.make
      ~wall_clock_s:(Unix.gettimeofday () -. wall_start)
      ~outcome ~replay ~loops ~loops_until:window_end ()
  in
  { spec; outcome; replay; loops; metrics }

let metrics spec = (run spec).metrics

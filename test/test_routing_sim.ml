(* End-to-end tests of the routing simulation: warm-up convergence to
   shortest paths, T_down and T_long dynamics, determinism, and input
   validation. *)

let run ?params ?config ?obs ~graph ~origin ~event ~seed () =
  Bgp.Routing_sim.run ?params ?config ?obs ~graph ~origin ~event ~seed ()

let fib_of (o : Bgp.Routing_sim.outcome) = Netcore.Trace.fib o.trace

(* [run obs] on a bus with a memory sink, and the events it emitted. *)
let recorded run =
  let sink, events = Obs.Sink.memory () in
  let result = run (Obs.Bus.create ~sink ()) in
  (result, events ())

let link_states events =
  List.filter_map
    (function
      | Obs.Event.Link_state { time; up; _ } -> Some (time, up) | _ -> None)
    events

(* Follow next hops at [time]; returns the hop count to the origin, or
   None on a missing route / loop. *)
let walk_length fib ~origin ~n ~time ~src =
  let rec step node hops =
    if node = origin then Some hops
    else if hops > n then None
    else
      match Netcore.Fib_history.lookup fib ~node ~time with
      | None -> None
      | Some next -> step next (hops + 1)
  in
  step src 0

let check_warmup_shortest_paths graph origin =
  let o = run ~graph ~origin ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  let fib = fib_of o in
  let dist = Topo.Graph.bfs_distances graph ~from:origin in
  let time = o.t_fail -. 1. in
  List.iter
    (fun v ->
      if v <> origin then
        match walk_length fib ~origin ~n:(Topo.Graph.n_nodes graph) ~time ~src:v with
        | Some hops ->
            Alcotest.(check int)
              (Printf.sprintf "node %d converged to shortest path" v)
              dist.(v) hops
        | None -> Alcotest.failf "node %d has no route after warm-up" v)
    (Topo.Graph.nodes graph)

let test_warmup_clique () = check_warmup_shortest_paths (Topo.Generators.clique 6) 0

let test_warmup_chain () = check_warmup_shortest_paths (Topo.Generators.chain 7) 0

let test_warmup_ring () = check_warmup_shortest_paths (Topo.Generators.ring 8) 3

let test_warmup_b_clique () =
  check_warmup_shortest_paths (Topo.Generators.b_clique 4) 0

let test_warmup_grid () =
  check_warmup_shortest_paths (Topo.Generators.grid ~rows:3 ~cols:3) 4

let test_warmup_internet () =
  let graph = Topo.Internet.generate ~seed:3 29 in
  check_warmup_shortest_paths graph (List.hd (Topo.Internet.stub_nodes graph))

let test_tdown_ends_unreachable () =
  let graph = Topo.Generators.clique 6 in
  let o = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  let late = o.convergence_end +. 100. in
  List.iter
    (fun v ->
      if v <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d has no route" v)
          true
          (Netcore.Fib_history.lookup fib ~node:v ~time:late = None))
    (Topo.Graph.nodes graph)

let test_tdown_sends_messages () =
  let graph = Topo.Generators.clique 5 in
  let o = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  Alcotest.(check bool) "convergence takes time" true
    (Bgp.Routing_sim.convergence_time o > 0.);
  Alcotest.(check bool) "withdrawals happened" true (o.withdrawals_after_fail > 0);
  Alcotest.(check bool) "path exploration happened" true (o.updates_after_fail > 0)

let test_tlong_reroutes () =
  let n = 4 in
  let graph = Topo.Generators.b_clique n in
  let o =
    run ~graph ~origin:0 ~event:(Bgp.Routing_sim.Tlong { a = 0; b = n }) ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  let late = o.convergence_end +. 100. in
  (* every node still reaches the destination, now over the chain *)
  List.iter
    (fun v ->
      if v <> 0 then
        match walk_length fib ~origin:0 ~n:(2 * n) ~time:late ~src:v with
        | Some _ -> ()
        | None -> Alcotest.failf "node %d lost the destination" v)
    (Topo.Graph.nodes graph);
  (* the core node n now pays the full detour through the chain *)
  Alcotest.(check bool) "core detour is long" true
    (walk_length fib ~origin:0 ~n:(2 * n) ~time:late ~src:n = Some (n + 1))

let test_tlong_no_withdrawal_before_failure () =
  let graph = Topo.Generators.b_clique 3 in
  let o, events =
    recorded (fun obs ->
        run ~obs ~graph ~origin:0
          ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 3 })
          ~seed:1 ())
  in
  (* all pre-failure messages belong to the warm-up announcement wave:
     no withdrawals can occur before anything fails *)
  let pre_fail_withdrawals =
    List.filter
      (function
        | Obs.Event.Update_sent { withdraw; time; _ } ->
            withdraw && time < o.t_fail
        | _ -> false)
      events
  in
  Alcotest.(check int) "no early withdrawals" 0 (List.length pre_fail_withdrawals)

let test_link_event_logged () =
  let graph = Topo.Generators.b_clique 3 in
  let o, events =
    recorded (fun obs ->
        run ~obs ~graph ~origin:0
          ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 3 })
          ~seed:1 ())
  in
  match link_states events with
  | [ (time, up) ] ->
      Alcotest.(check bool) "down event" false up;
      Alcotest.(check (float 0.)) "at t_fail" o.t_fail time
  | evs -> Alcotest.failf "expected one link event, got %d" (List.length evs)

(* [convergence_end], [updates_after_fail] and [withdrawals_after_fail]
   recounted from the run's own [Update_sent] events: the last send at
   or after [t_fail] (or [t_fail] itself) and the sends there of each
   kind. *)
let check_sends_match_events name (o : Bgp.Routing_sim.outcome) events =
  let after =
    List.filter_map
      (function
        | Obs.Event.Update_sent { time; withdraw; _ } when time >= o.t_fail ->
            Some (time, withdraw)
        | _ -> None)
      events
  in
  let last = List.fold_left (fun _ (time, _) -> time) o.t_fail after in
  let count withdraw =
    List.length (List.filter (fun (_, w) -> w = withdraw) after)
  in
  Alcotest.(check bool) (name ^ ": sends after the failure") true (after <> []);
  Alcotest.(check (float 0.)) (name ^ ": convergence_end") last
    o.convergence_end;
  Alcotest.(check int) (name ^ ": updates") (count false) o.updates_after_fail;
  Alcotest.(check int)
    (name ^ ": withdrawals") (count true) o.withdrawals_after_fail

let test_sends_after_failure_match_events () =
  List.iter
    (fun (f : Bgpsim.Golden.fixture) ->
      let o, events =
        recorded (fun obs -> (Bgpsim.Experiment.run ~obs f.spec).outcome)
      in
      check_sends_match_events f.name o events)
    Bgpsim.Golden.fixtures;
  let scenario =
    match
      Faults.Scenario.of_string "fail@0:0-1;crash@5:2;recover@30:0-1;restart@40:2"
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (name, graph, event) ->
      let o, events =
        recorded (fun obs -> run ~obs ~graph ~origin:0 ~event ~seed:1 ())
      in
      check_sends_match_events name o events)
    [
      ("b-clique-6 Tlong", Topo.Generators.b_clique 6,
        Bgp.Routing_sim.Tlong { a = 0; b = 6 });
      ("b-clique-4 Tshort", Topo.Generators.b_clique 4,
        Bgp.Routing_sim.Tshort { a = 0; b = 4; down_for = 20. });
      ("clique-6 Tup", Topo.Generators.clique 6, Bgp.Routing_sim.Tup);
      ("clique-5 scenario", Topo.Generators.clique 5,
        Bgp.Routing_sim.Scenario scenario);
    ]

let test_deterministic_per_seed () =
  let graph = Topo.Generators.clique 6 in
  let a = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:7 () in
  let b = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:7 () in
  Alcotest.(check (float 0.)) "same convergence"
    (Bgp.Routing_sim.convergence_time a)
    (Bgp.Routing_sim.convergence_time b);
  Alcotest.(check int) "same message count"
    (a.updates_after_fail + a.withdrawals_after_fail)
    (b.updates_after_fail + b.withdrawals_after_fail);
  Alcotest.(check int) "same fib history"
    (Netcore.Fib_history.change_count (fib_of a))
    (Netcore.Fib_history.change_count (fib_of b))

let test_seeds_differ () =
  let graph = Topo.Generators.clique 8 in
  let conv seed =
    Bgp.Routing_sim.convergence_time
      (run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed ())
  in
  (* jitter and processing delays depend on the seed; at least one of
     several seeds must diverge *)
  let c1 = conv 1 in
  Alcotest.(check bool) "some variation" true
    (List.exists (fun s -> conv s <> c1) [ 2; 3; 4 ])

let test_convergence_time_accessor () =
  let graph = Topo.Generators.clique 4 in
  let o = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  Alcotest.(check (float 1e-9)) "definition"
    (o.convergence_end -. o.t_fail)
    (Bgp.Routing_sim.convergence_time o)

let test_mrai_zero_message_storm () =
  (* Griffin & Premore (cited as the paper's [5], footnote 3): below a
     topology-specific optimal MRAI, convergence is dominated by update
     storms.  Removing the timer must multiply the message count, and
     need not make convergence faster. *)
  let graph = Topo.Generators.clique 8 in
  let config = Bgp.Config.{ default with mrai = 0. } in
  let o = run ~config ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  let with_mrai = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  let msgs (r : Bgp.Routing_sim.outcome) =
    r.updates_after_fail + r.withdrawals_after_fail
  in
  Alcotest.(check bool) "storm without the timer" true
    (msgs o > 5 * msgs with_mrai);
  Alcotest.(check bool) "still converges" true o.converged

let test_validation () =
  let graph = Topo.Generators.clique 4 in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad origin" true
    (raises (fun () ->
         run ~graph ~origin:9 ~event:Bgp.Routing_sim.Tdown ~seed:1 ()));
  Alcotest.(check bool) "absent Tlong link" true
    (raises (fun () ->
         run ~graph ~origin:0
           ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 0 })
           ~seed:1 ()));
  let disconnected = Topo.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "disconnected graph" true
    (raises (fun () ->
         run ~graph:disconnected ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 ()))

(* One definition of "drained": a run whose queue empties on exactly its
   last allowed event is drained and converged; one event fewer is a
   would-be hang. *)
let test_drained_at_the_cap () =
  let graph = Topo.Generators.clique 5 in
  let tdown ?max_events () =
    Bgp.Routing_sim.run ?max_events ~graph ~origin:0
      ~event:Bgp.Routing_sim.Tdown ~seed:1 ()
  in
  let e = (tdown ()).events_executed in
  let check cap termination converged =
    let o = tdown ~max_events:cap () in
    let name = Printf.sprintf "cap E%+d" (cap - e) in
    Alcotest.(check string) (name ^ ": termination")
      (Bgp.Routing_sim.termination_name termination)
      (Bgp.Routing_sim.termination_name o.termination);
    Alcotest.(check bool) (name ^ ": converged") converged o.converged
  in
  check (e - 1) Bgp.Routing_sim.Event_budget false;
  check e Bgp.Routing_sim.Drained true;
  check (e + 1) Bgp.Routing_sim.Drained true

let test_tup_announces_fresh_prefix () =
  let graph = Topo.Generators.clique 6 in
  let o = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tup ~seed:1 () in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  (* nothing is routable before the event... *)
  List.iter
    (fun v ->
      if v <> 0 then
        Alcotest.(check bool) "no route before Tup" true
          (Netcore.Fib_history.lookup fib ~node:v ~time:(o.t_fail -. 1.) = None))
    (Topo.Graph.nodes graph);
  (* ...and everything is after *)
  let late = o.convergence_end +. 100. in
  List.iter
    (fun v ->
      if v <> 0 then
        Alcotest.(check bool) "routed after Tup" true
          (walk_length fib ~origin:0 ~n:6 ~time:late ~src:v <> None))
    (Topo.Graph.nodes graph);
  (* classical result: Tup is fast — no path exploration *)
  Alcotest.(check bool) "fast convergence" true
    (Bgp.Routing_sim.convergence_time o < 5.)

let test_trecover_restores_short_paths () =
  let n = 4 in
  let graph = Topo.Generators.b_clique n in
  let o =
    run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Trecover { a = 0; b = n })
      ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  (* warm-up converged the long way round: node n pays the chain detour *)
  Alcotest.(check bool) "detour before recovery" true
    (walk_length fib ~origin:0 ~n:(2 * n) ~time:(o.t_fail -. 1.) ~src:n
    = Some (n + 1));
  (* after recovery it uses the direct link again *)
  let late = o.convergence_end +. 100. in
  Alcotest.(check bool) "direct after recovery" true
    (walk_length fib ~origin:0 ~n:(2 * n) ~time:late ~src:n = Some 1)

let test_inverse_events_are_loop_free () =
  (* moving to better paths never falls back onto stale state: no
     transient loops for Tup/Trecover *)
  let check_no_loops ~graph ~origin ~event =
    let o = run ~graph ~origin ~event ~seed:1 () in
    let report =
      Loopscan.Scanner.scan ~fib:(fib_of o) ~origin ~from:o.t_fail ()
    in
    Alcotest.(check int) "no transient loops" 0 (List.length report.loops)
  in
  check_no_loops ~graph:(Topo.Generators.clique 8) ~origin:0
    ~event:Bgp.Routing_sim.Tup;
  check_no_loops
    ~graph:(Topo.Generators.b_clique 5)
    ~origin:0
    ~event:(Bgp.Routing_sim.Trecover { a = 0; b = 5 })

let test_tshort_flap_returns_to_original_routes () =
  let n = 4 in
  let graph = Topo.Generators.b_clique n in
  let o, events =
    recorded (fun obs ->
        run ~obs ~graph ~origin:0
          ~event:(Bgp.Routing_sim.Tshort { a = 0; b = n; down_for = 20. })
          ~seed:1 ())
  in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  let late = o.convergence_end +. 100. in
  (* after the flap settles, the direct link carries traffic again *)
  Alcotest.(check bool) "direct path restored" true
    (walk_length fib ~origin:0 ~n:(2 * n) ~time:late ~src:n = Some 1);
  (* two link events: down then up *)
  (match link_states events with
  | [ (down_time, down); (up_time, up) ] ->
      Alcotest.(check bool) "down first" true (not down);
      Alcotest.(check bool) "up second" true up;
      Alcotest.(check (float 1e-9)) "spacing" 20. (up_time -. down_time)
  | evs -> Alcotest.failf "expected two link events, got %d" (List.length evs));
  (* the down phase forces the detour like a Tlong... *)
  Alcotest.(check bool) "detour during the outage" true
    (walk_length fib ~origin:0 ~n:(2 * n) ~time:(o.t_fail +. 19.9) ~src:n
    <> Some 1)

let test_tshort_validation () =
  let graph = Topo.Generators.b_clique 3 in
  Alcotest.(check bool) "rejects non-positive outage" true
    (try
       ignore
         (run ~graph ~origin:0
            ~event:(Bgp.Routing_sim.Tshort { a = 0; b = 3; down_for = 0. })
            ~seed:1 ());
       false
     with Invalid_argument _ -> true)

let test_gao_rexford_policy_converges () =
  (* the library extension: warm-up under customer/provider policy on a
     hierarchy (star: hub 0 provides transit to the leaves) *)
  let graph = Topo.Generators.star 6 in
  let rel = Bgp.Policy.relationships_by_degree graph in
  let config =
    Bgp.Config.{ default with policy = Bgp.Policy.gao_rexford ~rel }
  in
  let o = run ~config ~graph ~origin:1 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  Alcotest.(check bool) "converged" true o.converged;
  let fib = fib_of o in
  let before = o.t_fail -. 1. in
  (* every leaf reaches the origin leaf via the hub *)
  List.iter
    (fun v ->
      if v <> 1 then
        match walk_length fib ~origin:1 ~n:6 ~time:before ~src:v with
        | Some hops -> Alcotest.(check bool) "short" true (hops <= 2)
        | None -> Alcotest.failf "leaf %d unreachable under gao-rexford" v)
    [ 0; 2; 3; 4; 5 ]

let test_no_message_storm_guard () =
  (* regression guard: a clique-10 T_down at the paper's settings must
     stay within a sane event budget — a blowup here means duplicate
     suppression or MRAI batching broke *)
  let graph = Topo.Generators.clique 10 in
  let o = run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
  Alcotest.(check bool)
    (Printf.sprintf "%d events within budget" o.events_executed)
    true
    (o.events_executed < 100_000);
  Alcotest.(check bool)
    (Printf.sprintf "%d messages within budget"
       (o.updates_after_fail + o.withdrawals_after_fail))
    true
    (o.updates_after_fail + o.withdrawals_after_fail < 5_000)

let test_enhancement_combinations () =
  (* the paper tests mechanisms one at a time; the library allows
     combinations — they must still converge to the same loop-free
     outcome *)
  let graph = Topo.Generators.clique 6 in
  let combos =
    [
      { Bgp.Config.default with ssld = true; ghost_flushing = true };
      { Bgp.Config.default with assertion = true; wrate = true };
      {
        Bgp.Config.default with
        ssld = true;
        assertion = true;
        ghost_flushing = true;
        wrate = true;
      };
    ]
  in
  List.iter
    (fun config ->
      let o = run ~config ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 () in
      Alcotest.(check bool) "converged" true o.converged;
      let fib = fib_of o in
      List.iter
        (fun v ->
          if v <> 0 then
            Alcotest.(check bool) "unreachable at the end" true
              (Netcore.Fib_history.lookup fib ~node:v
                 ~time:(o.convergence_end +. 100.)
              = None))
        (Topo.Graph.nodes graph))
    combos

let test_damping_composes () =
  let graph = Topo.Generators.b_clique 4 in
  let config =
    {
      Bgp.Config.default with
      ghost_flushing = true;
      damping = Some Bgp.Damping.default_params;
    }
  in
  let o =
    run ~config ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 4 })
      ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged

(* Griffin & Wilfong's BAD GADGET: nodes 1, 2, 3 around origin 0, each
   preferring the 2-hop path through its clockwise neighbor over its
   own direct path.  No stable routing exists, so BGP oscillates
   forever; a bounded run must hit its event budget rather than
   quiesce, and report [converged = false]. *)
let gadget_graph () =
  Topo.Graph.create ~n:4
    ~edges:[ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ]

let gadget_policy () =
  let clockwise = function 1 -> 2 | 2 -> 3 | 3 -> 1 | _ -> 0 in
  let rank ~self path =
    match Bgp.As_path.to_list path with
    | [ v; 0 ] when v = clockwise self -> 0 (* the coveted indirect path *)
    | [ 0 ] -> 1 (* the direct path *)
    | _ -> 2
  in
  let prefer ~self _ a _ b =
    let c = compare (rank ~self a) (rank ~self b) in
    if c <> 0 then c else Bgp.As_path.compare a b
  in
  { Bgp.Policy.shortest_path with prefer; name = "bad-gadget" }

let test_bad_gadget_reported_unconverged () =
  let config =
    Bgp.Config.{ default with policy = gadget_policy (); mrai = 1. }
  in
  let o =
    Bgp.Routing_sim.run ~config ~max_events:100_000 ~graph:(gadget_graph ())
      ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 ()
  in
  Alcotest.(check bool) "oscillation detected" false o.converged

let test_gao_rexford_gadget_safe () =
  (* the same triangle under valley-free Gao-Rexford preferences is
     provably safe (Gao & Rexford 2001): it must converge *)
  let graph = gadget_graph () in
  (* 0 is everyone's customer; 1, 2, 3 are mutual peers *)
  let rel a b =
    if a = 0 then Bgp.Policy.Provider
    else if b = 0 then Bgp.Policy.Customer
    else Bgp.Policy.Peer_rel
  in
  let config =
    Bgp.Config.{ default with policy = Bgp.Policy.gao_rexford ~rel; mrai = 1. }
  in
  let o =
    Bgp.Routing_sim.run ~config ~max_events:100_000 ~graph ~origin:0
      ~event:Bgp.Routing_sim.Tdown ~seed:1 ()
  in
  Alcotest.(check bool) "safe policy converges" true o.converged

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "routing-sim"
    [
      ( "warmup",
        [
          tc "clique converges to shortest paths" test_warmup_clique;
          tc "chain" test_warmup_chain;
          tc "ring" test_warmup_ring;
          tc "b-clique" test_warmup_b_clique;
          tc "grid" test_warmup_grid;
          tc "internet-derived" test_warmup_internet;
        ] );
      ( "tdown",
        [
          tc "destination becomes unreachable everywhere"
            test_tdown_ends_unreachable;
          tc "withdrawals and exploration happen" test_tdown_sends_messages;
        ] );
      ( "tlong",
        [
          tc "reroutes over the backup chain" test_tlong_reroutes;
          tc "no withdrawals before the failure"
            test_tlong_no_withdrawal_before_failure;
          tc "link event logged" test_link_event_logged;
        ] );
      ( "inverse-events",
        [
          tc "Tup announces a fresh prefix" test_tup_announces_fresh_prefix;
          tc "Trecover restores short paths" test_trecover_restores_short_paths;
          tc "inverse events are loop-free" test_inverse_events_are_loop_free;
          tc "Tshort flap returns to original routes"
            test_tshort_flap_returns_to_original_routes;
          tc "Tshort validation" test_tshort_validation;
        ] );
      ( "determinism",
        [
          tc "identical runs per seed" test_deterministic_per_seed;
          tc "seeds vary timing" test_seeds_differ;
        ] );
      ( "convergence",
        [
          tc "sends after the failure = the event stream"
            test_sends_after_failure_match_events;
        ] );
      ( "misc",
        [
          tc "convergence_time accessor" test_convergence_time_accessor;
          tc "MRAI=0 causes a message storm" test_mrai_zero_message_storm;
          tc "input validation" test_validation;
          tc "gao-rexford policy converges" test_gao_rexford_policy_converges;
        ] );
      ( "budgets",
        [ tc "drained on its last allowed event" test_drained_at_the_cap ] );
      ( "robustness",
        [
          tc "no message storm at default settings"
            test_no_message_storm_guard;
          tc "enhancement combinations run clean"
            test_enhancement_combinations;
          tc "damping composes with enhancements"
            test_damping_composes;
        ] );
      ( "policy-safety",
        [
          tc "BAD GADGET reported unconverged"
            test_bad_gadget_reported_unconverged;
          tc "gao-rexford gadget is safe" test_gao_rexford_gadget_safe;
        ] );
    ]

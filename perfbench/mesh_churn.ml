(* mesh-churn: [Bgp.Mesh_sim.run] on an internet-110 graph where every
   AS originates a prefix.  The min-degree stub's prefix is withdrawn
   while 30 background origins flap for 20 cycles of 60 s.  Each step
   is one whole simulation with its own seed, run with the trace bus
   off. *)

type config = {
  graph : Topo.Graph.t;
  victim : int;
  churn : Bgp.Mesh_sim.churn;
}

let config ~graph_seed ~n ~flappers ~cycles =
  let graph = Topo.Internet.generate ~seed:graph_seed n in
  let victim = List.hd (Topo.Graph.min_degree_nodes graph) in
  let flappers =
    List.filter (fun i -> i <> victim) (List.init n Fun.id)
    |> List.filteri (fun i _ -> i < flappers)
  in
  { graph; victim; churn = { Bgp.Mesh_sim.period = 60.; cycles; flappers } }

let simulate ?obs c ~seed =
  Bgp.Mesh_sim.run ~churn:c.churn ?obs ~graph:c.graph ~victim:c.victim ~seed ()

let loop_totals (o : Bgp.Mesh_sim.outcome) =
  let until = o.victim_convergence_end in
  List.fold_left
    (fun (c, s) (_, r) ->
      let a = Loopscan.Scanner.aggregate r ~until in
      (c + a.count, s +. a.total_loop_seconds))
    (0, 0.) o.loop_reports

(* Events, victim and background message counts, convergence time and
   loop totals of one simulation. *)
let outcome_digest (o : Bgp.Mesh_sim.outcome) =
  let loops, loop_s = loop_totals o in
  Helpers.md5
    (String.concat ","
       [
         string_of_int o.events_executed; string_of_int o.victim_messages;
         string_of_int o.background_messages;
         Helpers.fl (Bgp.Mesh_sim.convergence_time o);
         string_of_int loops; Helpers.fl loop_s; string_of_bool o.converged;
       ])

(* Every step of a run derives its simulation seed from the workload
   seed. *)
let step_seed ~seed k = (seed * 1000) + k

let canary_key = "mesh-churn/canary"

(* A smaller full mesh at the default seed: the warm-up and canary. *)
let canary_config () = config ~graph_seed:1 ~n:60 ~flappers:12 ~cycles:6

let step_key k = Printf.sprintf "mesh-churn/step-%d" k

(* Set-up: the workload graph (timed on its own, it is the topology
   layer's share), and a small full-mesh run at the default seed as
   warm-up and canary.  The graph is the same for every seed, so the
   seed varies only the simulation. *)
let setup ~expected =
  let c, graph_s =
    Helpers.time (fun () ->
        config ~graph_seed:1 ~n:110 ~flappers:30 ~cycles:20)
  in
  let canary = simulate (canary_config ()) ~seed:1 in
  let canary_ok =
    canary.converged
    && Measure.recorded expected ~key:canary_key (outcome_digest canary)
  in
  (c, graph_s, canary_ok)

(* Post-hoc scans of every prefix's forwarding history; they must find
   the loops the simulator's streaming scanners reported. *)
let post_hoc_scan (o : Bgp.Mesh_sim.outcome) =
  List.for_all2
    (fun (p, fib) (_, streamed) ->
      let r =
        Loopscan.Scanner.scan ~fib ~origin:(Bgp.Prefix.origin p) ~from:o.t_fail
          ()
      in
      r = streamed)
    o.prefixes o.loop_reports

let run ~seed ~seconds ~traced ~expected =
  let (c, graph_s, canary_ok), setup_s =
    Measure.repeated_setup (fun () -> setup ~expected)
  in
  let steps = ref [] and events = ref 0 and failed = ref 0 in
  let first = ref "" and recorded_ok = ref true in
  let counters = Obs.Counters.create () in
  let sink, trace_events, ring = Measure.counting_sink () in
  let obs = Obs.Bus.create ~sink ~counters () in
  let traced_sim = ref 0. and scan_s = ref 0. and traced_step = ref 0. in
  let loops = ref 0 and arena_peak = ref 0 and traced_ok = ref true in
  let step k =
    let o, wall = Helpers.time (fun () -> simulate c ~seed:(step_seed ~seed k)) in
    let digest = outcome_digest o in
    if k = 0 then first := digest;
    let recorded =
      seed <> 1
      || (not (List.mem_assoc (step_key k) expected))
      || Measure.recorded expected ~key:(step_key k) digest
    in
    recorded_ok := !recorded_ok && recorded;
    events := !events + o.events_executed;
    steps := wall :: !steps;
    loops := !loops + fst (loop_totals o);
    arena_peak := Stdlib.max !arena_peak o.paths_interned;
    if not (recorded && o.converged) then incr failed;
    if traced then begin
      let t0 = Helpers.now () in
      let o', sim =
        Helpers.time (fun () -> simulate ~obs c ~seed:(step_seed ~seed k))
      in
      let scan_ok, scan = Helpers.time (fun () -> post_hoc_scan o') in
      traced_step := !traced_step +. (Helpers.now () -. t0);
      traced_sim := !traced_sim +. sim;
      scan_s := !scan_s +. scan;
      traced_ok :=
        !traced_ok && scan_ok && String.equal (outcome_digest o') digest
    end
  in
  let alloc0 = Helpers.allocated () in
  let t0 = Helpers.now () in
  let rec loop k =
    if k = 0 || Helpers.now () -. t0 < seconds then begin
      (try step k with Failure _ | Invalid_argument _ -> incr failed);
      loop (k + 1)
    end
    else k
  in
  let n = loop 0 in
  let wall_s = Helpers.now () -. t0 in
  let alloc_words = Helpers.allocated () -. alloc0 in
  let untraced_sim = List.fold_left ( +. ) 0. !steps in
  let layers =
    if not traced then []
    else
      let per = float_of_int n in
      [
        ("topo.resolve_s", graph_s);
        ("bgp.routing_sim_s", untraced_sim /. per);
        ("dessim.events", float_of_int !events /. per);
        ("loopscan.scan_s", !scan_s /. per);
        ("loopscan.loops", float_of_int !loops /. per);
        ("obs.trace_events", float_of_int !trace_events /. per);
        ("obs.binary_encode_ns", Measure.binary_encode_ns (ring ()));
        ("bgp.arena_peak", float_of_int !arena_peak);
        ("core.attributed_share", (!traced_sim +. !scan_s) /. !traced_step);
        ( "core.unattributed_s",
          (!traced_step -. !traced_sim -. !scan_s) /. per );
        ("obs.tracing_overhead_s", (!traced_sim -. untraced_sim) /. per);
      ]
      @ Measure.counter_layers ~per (Obs.Counters.snapshot counters)
  in
  let checks =
    [
      ("canary matches its recorded digest", canary_ok);
      ("default-seed steps match their recorded digests", !recorded_ok);
    ]
    @
    if traced then
      [ ("traced runs and post-hoc scans reproduce the untraced run", !traced_ok) ]
    else []
  in
  {
    Measure.setup_s;
    steps = List.rev !steps;
    tail_cap = 0.9;
    wall_s;
    events = !events;
    alloc_words;
    attempted = n + 1;
    failed = (!failed + if canary_ok then 0 else 1);
    checks;
    digest = !first;
    layers;
  }

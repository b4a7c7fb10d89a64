(* Golden-trace oracle: canonical seeded runs whose trace digests are
   committed to the repository (test/golden_digests.expected) and
   asserted by test_golden and CI.  Any behavioral drift in the
   simulator — event order, timing, decision process — changes the
   digest and fails tier-1, not just metric-level drift.

   Regenerate after an intentional behavior change with:

     dune exec bin/bgpsim_cli.exe -- golden > test/golden_digests.expected
*)

type fixture = { name : string; spec : Experiment.spec }

let clique5_tdown =
  { name = "clique5-tdown"; spec = Experiment.default_spec (Clique 5) }

let bclique5_tlong =
  {
    name = "bclique5-tlong";
    spec = { (Experiment.default_spec (B_clique 5)) with event = Tlong };
  }

let chain6_withdraw =
  {
    name = "chain6-withdraw";
    spec =
      Experiment.default_spec
        (Custom
           { graph = Topo.Generators.chain 6; origin = 0; name = "chain-6" });
  }

let fixtures = [ clique5_tdown; bclique5_tlong; chain6_withdraw ]

let find name = List.find_opt (fun f -> f.name = name) fixtures

(* The canonical run for CI's uploaded artifact and the CLI acceptance
   check: `bgpsim_cli run --trace out.jsonl` on Clique 5 / T_down. *)
let canonical = clique5_tdown

(* The events [run] emits on a bus with a memory sink. *)
let record run =
  let sink, contents = Obs.Sink.memory () in
  run (Obs.Bus.create ~sink ());
  contents ()

let events f =
  record (fun obs -> ignore (Experiment.run ~obs f.spec : Experiment.run))

let digest f = Obs.Trace_digest.of_events (events f)

let digest_line f = Printf.sprintf "%s %s" f.name (digest f)

(* Full-mesh multi-prefix fixtures: every node originating its own
   prefix, the victim's prefix withdrawn, seed 1.  Not
   [Experiment.spec]s (those are single-prefix), so they live outside
   [fixtures].  Their digests pin the per-prefix trace tagging, the
   slot-indexed RIB arrays and the batched MRAI release order — plain,
   with Ghost Flushing (held keys plus [send_now ~keep_pending:true])
   and with WRATE withdrawals queued behind a Fifo limiter.  With the
   processing delay fixed at 0 every completion ties with its arrival,
   so only the engine's sequence numbers order the router queues; the
   internet-29 churn run drives those queues hundreds deep. *)
type mesh_fixture = {
  mesh_name : string;
  graph : Topo.Graph.t;
  victim : int;
  params : Netcore.Params.t;
  config : Bgp.Config.t;
  churn : Bgp.Mesh_sim.churn option;
}

let clique5_mesh mesh_name ?(params = Netcore.Params.default) config =
  {
    mesh_name;
    graph = Topo.Generators.clique 5;
    victim = 0;
    params;
    config;
    churn = None;
  }

let zero_proc =
  { Netcore.Params.default with proc_delay_min = 0.; proc_delay_max = 0. }

let ghost_flushing =
  Bgp.Config.of_enhancement ~mrai:30. Bgp.Enhancement.Ghost_flushing

(* The perfbench mesh-churn recipe at a size a test can afford: the
   first min-degree node is the victim, the first 5 others flap. *)
let internet29_mesh_churn =
  let graph = Topo.Internet.generate ~seed:1 29 in
  let victim = List.hd (Topo.Graph.min_degree_nodes graph) in
  let flappers =
    List.filter (fun i -> i <> victim) (List.init 29 Fun.id)
    |> List.filteri (fun i _ -> i < 5)
  in
  {
    mesh_name = "internet29-mesh-churn";
    graph;
    victim;
    params = Netcore.Params.default;
    config = Bgp.Config.default;
    churn = Some { Bgp.Mesh_sim.period = 60.; cycles = 4; flappers };
  }

let mesh_fixtures =
  [
    clique5_mesh "clique5-mesh" Bgp.Config.default;
    clique5_mesh "clique5-mesh-gf" ghost_flushing;
    clique5_mesh "clique5-mesh-wrate-fifo"
      {
        (Bgp.Config.of_enhancement ~mrai:30. Bgp.Enhancement.Wrate) with
        rate_limiter = Bgp.Mrai.Fifo;
      };
    clique5_mesh "clique5-mesh-zero-proc" ~params:zero_proc Bgp.Config.default;
    clique5_mesh "clique5-mesh-gf-zero-proc" ~params:zero_proc ghost_flushing;
    internet29_mesh_churn;
  ]

let traces =
  List.map (fun f -> (f.name, fun () -> events f)) fixtures
  @ List.map
      (fun m ->
        ( m.mesh_name,
          fun () ->
            record (fun obs ->
                ignore
                  (Bgp.Mesh_sim.run ~obs ~params:m.params ~config:m.config
                     ?churn:m.churn ~graph:m.graph ~victim:m.victim ~seed:1 ()
                    : Bgp.Mesh_sim.outcome)) ))
      mesh_fixtures

let digest_lines () =
  List.map
    (fun (name, events) ->
      Printf.sprintf "%s %s" name (Obs.Trace_digest.of_events (events ())))
    traces

(* Fixture-file format: one "<name> <hex-md5>" pair per line; blank
   lines and '#' comments are ignored. *)
let parse_expected text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)) ))

(* Extension beyond the paper: multiple prefixes share each router's
   serial update-processing queue, so background churn on unrelated
   prefixes lengthens a victim prefix's convergence — and with it, its
   transient-loop exposure.

     dune exec examples/churn_interference.exe *)

let () =
  let graph = Topo.Internet.generate ~seed:1 48 in
  let victim_origin = List.hd (Topo.Internet.stub_nodes graph) in
  let background =
    List.filteri (fun i _ -> i < 6)
      (List.filter (fun v -> v <> victim_origin) (Topo.Graph.nodes graph))
  in
  let origins = victim_origin :: background in
  let flappers = List.mapi (fun i _ -> i + 1) background in
  Format.printf
    "Victim: stub AS %d on a 48-node topology; %d background origins.@.@."
    victim_origin (List.length background);
  List.iter
    (fun (label, churn) ->
      let o = Bgp.Mesh_sim.run ?churn ~origins ~graph ~victim:0 ~seed:1 () in
      let fib = List.assoc o.victim o.prefixes in
      let loops =
        Loopscan.Scanner.scan ~fib ~origin:victim_origin ~from:o.t_fail ()
      in
      Format.printf
        "%-16s victim conv=%6.1fs  victim loops=%2d  victim msgs=%4d  bg msgs=%5d@."
        label
        (Bgp.Mesh_sim.convergence_time o)
        (List.length loops.loops) o.victim_messages o.background_messages)
    [
      ("quiet", None);
      ( "gentle flapping",
        Some { Bgp.Mesh_sim.period = 60.; cycles = 6; flappers } );
      ( "heavy flapping",
        Some { Bgp.Mesh_sim.period = 10.; cycles = 36; flappers } );
    ];
  Format.printf
    "@.The failure injected for the victim is identical in all three runs;@.\
     what changes is that its updates queue behind background work on every@.\
     shared router, which delays decisions, re-times MRAI rounds and can@.\
     lengthen path exploration itself (note the victim message counts).@.\
     The MRAI timer still dominates loop duration (the paper's claim) —@.\
     churn adds tens of seconds where the timer adds minutes.@."

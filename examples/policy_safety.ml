(* Policy safety: Griffin & Wilfong's BAD GADGET oscillates forever
   under BGP, while the same topology under valley-free Gao-Rexford
   preferences is provably convergent.  The simulator's event budget
   turns divergence into a measurable verdict — and the static
   dispute-digraph analyzer (DESIGN.md §11) predicts each verdict
   before a single event is scheduled.

     dune exec examples/policy_safety.exe *)

let gadget_graph () =
  (* origin 0 with three mutually-connected neighbors *)
  Topo.Graph.create ~n:4
    ~edges:[ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ]

(* each node prefers the 2-hop path through its clockwise neighbor over
   its own direct path — the circular envy that admits no stable
   assignment *)
let gadget_policy () =
  let clockwise = function 1 -> 2 | 2 -> 3 | 3 -> 1 | _ -> 0 in
  let rank ~self path =
    match Bgp.As_path.to_list path with
    | [ v; 0 ] when v = clockwise self -> 0
    | [ 0 ] -> 1
    | _ -> 2
  in
  let prefer ~self _ a _ b =
    let c = compare (rank ~self a) (rank ~self b) in
    if c <> 0 then c else Bgp.As_path.compare a b
  in
  { Bgp.Policy.shortest_path with prefer; name = "bad-gadget" }

let verdict ?gr_rel label config =
  let static =
    Analysis.Spvp.analyze ?gr_rel ~graph:(gadget_graph ())
      ~policy:config.Bgp.Config.policy ~origin:0 ()
  in
  let o =
    Bgp.Routing_sim.run ~config ~max_events:200_000 ~graph:(gadget_graph ())
      ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1 ()
  in
  Format.printf "%-24s static: %-8s dynamic: %s  (%d events executed)@." label
    (Analysis.Spvp.verdict_name static.verdict)
    (if o.converged then "CONVERGED" else "OSCILLATES (budget exhausted)")
    o.events_executed

let () =
  Format.printf
    "The same 4-node topology under three policies (budget: 200k events)@.@.";
  verdict "shortest-path"
    Bgp.Config.{ default with mrai = 1. };
  verdict "bad-gadget"
    Bgp.Config.{ default with policy = gadget_policy (); mrai = 1. };
  let rel a b =
    if a = 0 then Bgp.Policy.Provider
    else if b = 0 then Bgp.Policy.Customer
    else Bgp.Policy.Peer_rel
  in
  verdict ~gr_rel:rel "gao-rexford (valley-free)"
    Bgp.Config.{ default with policy = Bgp.Policy.gao_rexford ~rel; mrai = 1. };
  Format.printf
    "@.BAD GADGET never stabilizes no matter how long it runs — the dispute@.\
     wheel keeps turning — while the Gao-Rexford constraints break the@.\
     circular preference and guarantee convergence (Gao & Rexford 2001).@.\
     The static analyzer agrees on every row without simulating: its@.\
     dispute digraph is acyclic exactly when the policy is safe, and@.\
     its witness cycle for BAD GADGET is the wheel itself:@.  %a@."
    Analysis.Spvp.pp
    (Analysis.Spvp.analyze ~graph:(gadget_graph ())
       ~policy:(gadget_policy ()) ~origin:0 ())

(* Integration tests that reproduce the paper's qualitative findings at
   small scale (kept small so `dune runtest` stays fast; the full-size
   reproductions are `bgpsim figures`, over the grid in
   lib/core/figures.ml):

   - Figure 1's loop-formation example, node for node;
   - Observation 1: overall looping duration tracks convergence time,
     and both grow linearly with the MRAI value;
   - Observation 2: the looping ratio is roughly constant in the MRAI;
   - Observation 3: Assertion and Ghost Flushing beat standard BGP,
     SSLD is a milder improvement;
   - global sanity: forwarding is loop-free after convergence. *)

open Bgpsim

let clique n = Experiment.default_spec (Experiment.Clique n)

(* --- the paper's Figure 1 --- *)

(* Nodes 0..6.  4 connects the destination side: link (4,0).  5 and 6
   hang off 4 and peer with each other; 6 also reaches 0 the long way
   through 3-2-1.  Failing (4,0) makes 5 and 6 chase each other's stale
   paths: the transient 2-node loop of Fig 1(b). *)
let figure1_graph () =
  Topo.Graph.create ~n:7
    ~edges:[ (0, 4); (4, 5); (4, 6); (5, 6); (6, 3); (3, 2); (2, 1); (1, 0) ]

let figure1_spec () =
  {
    (Experiment.default_spec
       (Experiment.Custom
          { graph = figure1_graph (); origin = 0; name = "figure-1" }))
    with
    event = Experiment.Tlong_link (0, 4);
  }

let test_figure1_loop_between_5_and_6 () =
  let r = Experiment.run (figure1_spec ()) in
  Alcotest.(check bool) "converged" true r.metrics.converged;
  let loop_56 =
    List.exists
      (fun (l : Loopscan.Scanner.loop) -> l.members = [ 5; 6 ])
      r.loops.loops
  in
  Alcotest.(check bool) "the 5<->6 transient loop forms" true loop_56;
  (* and it resolves: no loop survives convergence *)
  List.iter
    (fun (l : Loopscan.Scanner.loop) ->
      Alcotest.(check bool) "loop resolved" true (l.death <> None))
    r.loops.loops

let test_figure1_final_routes () =
  let r = Experiment.run (figure1_spec ()) in
  let fib = Netcore.Trace.fib r.outcome.trace in
  let late = r.outcome.convergence_end +. 100. in
  let nh v = Netcore.Fib_history.lookup fib ~node:v ~time:late in
  (* Fig 1(c): 6 escapes via 3, 5 follows 6, 4 follows 5 *)
  Alcotest.(check bool) "6 -> 3" true (nh 6 = Some 3);
  Alcotest.(check bool) "5 -> 6" true (nh 5 = Some 6);
  Alcotest.(check bool) "4 -> 5 or 4 -> 6" true
    (nh 4 = Some 5 || nh 4 = Some 6)

(* --- Observation 1 --- *)

let test_obs1_looping_tracks_convergence () =
  let m = Experiment.metrics { (clique 10) with mrai = 15. } in
  Alcotest.(check bool) "looping nearly all of convergence" true
    (m.overall_looping_duration > 0.7 *. m.convergence_time);
  Alcotest.(check bool) "and never longer than convergence + slack" true
    (m.overall_looping_duration < m.convergence_time +. 5.)

let test_obs1_linear_in_mrai () =
  let make mrai = { (clique 8) with mrai } in
  let series = Sweep.series ~make ~seeds:[ 1; 2 ] [ 5.; 10.; 15.; 20. ] in
  let conv_fit =
    Sweep.linearity series ~x:Fun.id
      ~y:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time)
  in
  let loop_fit =
    Sweep.linearity series ~x:Fun.id
      ~y:(fun (m : Metrics.Run_metrics.t) -> m.overall_looping_duration)
  in
  Alcotest.(check bool) "convergence linear in MRAI (R2)" true
    (conv_fit.r2 > 0.9);
  Alcotest.(check bool) "convergence slope positive" true (conv_fit.slope > 0.);
  Alcotest.(check bool) "looping duration linear in MRAI (R2)" true
    (loop_fit.r2 > 0.9);
  Alcotest.(check bool) "looping slope positive" true (loop_fit.slope > 0.)

(* --- Observation 2 --- *)

let test_obs2_ratio_constant_in_mrai () =
  let ratio mrai =
    (Sweep.over_seeds { (clique 10) with mrai } ~seeds:[ 1; 2 ]).looping_ratio
  in
  let r10 = ratio 10. and r20 = ratio 20. and r30 = ratio 30. in
  (* constant within a modest band, as in Fig 7 *)
  let lo = List.fold_left Float.min r10 [ r20; r30 ] in
  let hi = List.fold_left Float.max r10 [ r20; r30 ] in
  Alcotest.(check bool)
    (Printf.sprintf "ratio band [%.2f, %.2f] is narrow" lo hi)
    true
    (hi -. lo < 0.25);
  Alcotest.(check bool) "substantial looping (paper: >65% at size 15)" true
    (r30 > 0.4)

let test_obs2_exhaustions_grow_with_mrai () =
  let exh mrai =
    (Sweep.over_seeds { (clique 8) with mrai } ~seeds:[ 1 ]).ttl_exhaustions
  in
  Alcotest.(check bool) "more MRAI, more exhaustions" true (exh 20. > exh 5.)

(* --- Observation 3 --- *)

let test_obs3_enhancement_ordering () =
  let metric enh =
    Sweep.over_seeds
      { (clique 8) with enhancement = enh; mrai = 15. }
      ~seeds:[ 1; 2 ]
  in
  let std = metric Bgp.Enhancement.Standard in
  let assertion = metric Bgp.Enhancement.Assertion in
  let gf = metric Bgp.Enhancement.Ghost_flushing in
  let ssld = metric Bgp.Enhancement.Ssld in
  (* Assertion: near-immediate T_down convergence in cliques *)
  Alcotest.(check bool) "assertion crushes clique Tdown" true
    (assertion.convergence_time < 0.2 *. std.convergence_time);
  Alcotest.(check bool) "assertion kills looping" true
    (assertion.ttl_exhaustions < std.ttl_exhaustions / 10);
  (* Ghost Flushing: >= 80% looping reduction (paper) *)
  Alcotest.(check bool) "ghost flushing cuts >= 80%" true
    (float_of_int gf.ttl_exhaustions
    <= 0.2 *. float_of_int std.ttl_exhaustions);
  Alcotest.(check bool) "ghost flushing speeds convergence" true
    (gf.convergence_time < std.convergence_time);
  (* SSLD: an improvement, but not the dramatic one *)
  Alcotest.(check bool) "ssld helps" true
    (ssld.ttl_exhaustions < std.ttl_exhaustions);
  Alcotest.(check bool) "ssld milder than ghost flushing" true
    (ssld.ttl_exhaustions > gf.ttl_exhaustions)

let test_obs3_wrate_slows_tlong_convergence () =
  let metric enh =
    Sweep.over_seeds
      {
        (Experiment.default_spec (Experiment.B_clique 6)) with
        event = Experiment.Tlong;
        enhancement = enh;
        mrai = 15.;
      }
      ~seeds:[ 1; 2 ]
  in
  let std = metric Bgp.Enhancement.Standard in
  let wrate = metric Bgp.Enhancement.Wrate in
  (* paper: WRATE "slightly increases the T_long convergence time in
     B-Clique topologies" *)
  Alcotest.(check bool) "wrate does not speed Tlong up" true
    (wrate.convergence_time >= 0.95 *. std.convergence_time)

(* --- global sanity --- *)

let forwarding_loop_free r =
  let fib = Netcore.Trace.fib r.Experiment.outcome.trace in
  let graph, origin, _ = Experiment.resolve r.spec in
  let n = Topo.Graph.n_nodes graph in
  let late = r.outcome.convergence_end +. 100. in
  let plane = Traffic.Forwarder.compile fib in
  List.for_all
    (fun src ->
      src = origin
      ||
      match
        Traffic.Forwarder.walk plane ~origin ~link_delay:0.002 ~ttl:(4 * n)
          ~src ~send_time:late
      with
      | Traffic.Forwarder.Ttl_exhausted _ -> false
      | Traffic.Forwarder.Delivered _ | Traffic.Forwarder.Unreachable _ -> true)
    (Topo.Graph.nodes graph)

let test_loop_free_after_convergence () =
  List.iter
    (fun spec ->
      let r = Experiment.run spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s loop-free after convergence"
           (Experiment.topology_name spec.topology))
        true (forwarding_loop_free r))
    [
      { (clique 8) with mrai = 10. };
      {
        (Experiment.default_spec (Experiment.B_clique 5)) with
        event = Experiment.Tlong;
        mrai = 10.;
      };
      { (Experiment.default_spec (Experiment.Internet 29)) with mrai = 10. };
      {
        (Experiment.default_spec (Experiment.Internet 29)) with
        event = Experiment.Tlong;
        mrai = 10.;
        seed = 3;
      };
    ]

let test_loop_free_under_every_enhancement () =
  List.iter
    (fun enh ->
      let r =
        Experiment.run { (clique 6) with enhancement = enh; mrai = 10. }
      in
      Alcotest.(check bool)
        (Printf.sprintf "loop-free with %s" (Bgp.Enhancement.name enh))
        true (forwarding_loop_free r))
    Bgp.Enhancement.all

let test_tdown_ratio_meaningful () =
  (* the headline phenomenon: most packets sent during a clique T_down
     convergence hit a loop *)
  let m = Sweep.over_seeds { (clique 10) with mrai = 15. } ~seeds:[ 1; 2 ] in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f substantial" m.looping_ratio)
    true (m.looping_ratio > 0.5)

let test_loop_duration_bounded_by_theory () =
  (* Section 3.2: an m-node loop lasts at most (m-1) x M (plus
     processing slack) *)
  let spec = { (clique 8) with mrai = 10. } in
  let r = Experiment.run spec in
  let until = r.outcome.convergence_end +. r.spec.replay_tail in
  List.iter
    (fun (l : Loopscan.Scanner.loop) ->
      let bound =
        (float_of_int (Loopscan.Scanner.size l - 1) *. spec.mrai) +. 5.
      in
      let d = Loopscan.Scanner.duration l ~until in
      Alcotest.(check bool)
        (Printf.sprintf "loop of size %d lasted %.1fs <= %.1fs"
           (Loopscan.Scanner.size l) d bound)
        true (d <= bound))
    r.loops.loops

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "figure-1",
        [
          tc "transient loop between 5 and 6" test_figure1_loop_between_5_and_6;
          tc "final routes match Fig 1(c)" test_figure1_final_routes;
        ] );
      ( "observation-1",
        [
          tc "looping duration tracks convergence"
            test_obs1_looping_tracks_convergence;
          tc "linear in MRAI" test_obs1_linear_in_mrai;
        ] );
      ( "observation-2",
        [
          tc "ratio constant in MRAI" test_obs2_ratio_constant_in_mrai;
          tc "exhaustions grow with MRAI" test_obs2_exhaustions_grow_with_mrai;
        ] );
      ( "observation-3",
        [
          tc "enhancement ordering" test_obs3_enhancement_ordering;
          tc "wrate does not speed Tlong" test_obs3_wrate_slows_tlong_convergence;
        ] );
      ( "sanity",
        [
          tc "loop-free after convergence" test_loop_free_after_convergence;
          tc "loop-free under every enhancement"
            test_loop_free_under_every_enhancement;
          tc "Tdown looping ratio substantial" test_tdown_ratio_meaningful;
          tc "loop duration bounded by (m-1) x M"
            test_loop_duration_bounded_by_theory;
        ] );
    ]

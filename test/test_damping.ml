(* Tests for route-flap damping (RFC 2439): the figure-of-merit state
   machine, speaker-level suppression, and end-to-end behaviour on a
   flapping link. *)

let params =
  {
    Bgp.Damping.default_params with
    half_life = 100.;
    suppress_threshold = 2.0;
    reuse_threshold = 0.75;
  }

(* --- state machine --- *)

let test_penalty_accumulates_and_decays () =
  let d = Bgp.Damping.create params in
  Alcotest.(check (float 1e-9)) "starts clean" 0. (Bgp.Damping.penalty d ~now:0.);
  Bgp.Damping.on_withdrawal d ~now:0.;
  Alcotest.(check (float 1e-9)) "withdrawal penalty" 1.
    (Bgp.Damping.penalty d ~now:0.);
  (* one half-life later the penalty has halved *)
  Alcotest.(check (float 1e-9)) "decay" 0.5 (Bgp.Damping.penalty d ~now:100.)

let test_suppression_hysteresis () =
  let d = Bgp.Damping.create params in
  Bgp.Damping.on_withdrawal d ~now:0.;
  Bgp.Damping.on_update d ~now:0.;
  Alcotest.(check bool) "1.5 below suppress" false
    (Bgp.Damping.suppressed d ~now:0.);
  Bgp.Damping.on_withdrawal d ~now:0.;
  (* 2.5 > 2.0: suppressed *)
  Alcotest.(check bool) "suppressed" true (Bgp.Damping.suppressed d ~now:0.);
  (* decays below suppress (2.0) but above reuse (0.75): still out *)
  Alcotest.(check bool) "hysteresis holds" true
    (Bgp.Damping.suppressed d ~now:100.);
  (* below reuse: back in *)
  Alcotest.(check bool) "reused" false (Bgp.Damping.suppressed d ~now:300.)

let test_reuse_at_prediction () =
  let d = Bgp.Damping.create params in
  for _ = 1 to 3 do
    Bgp.Damping.on_withdrawal d ~now:0.
  done;
  (* penalty 3.0; crosses 0.75 after 2 half-lives = 200 s *)
  (match Bgp.Damping.reuse_at d ~now:0. with
  | Some t -> Alcotest.(check (float 1e-6)) "reuse time" 200. t
  | None -> Alcotest.fail "expected suppression");
  (* the prediction is self-consistent *)
  Alcotest.(check bool) "just before" true
    (Bgp.Damping.suppressed d ~now:199.9);
  Alcotest.(check bool) "just after" false
    (Bgp.Damping.suppressed d ~now:200.1)

let test_penalty_ceiling () =
  let d = Bgp.Damping.create params in
  for _ = 1 to 100 do
    Bgp.Damping.on_withdrawal d ~now:0.
  done;
  Alcotest.(check (float 1e-9)) "capped" params.max_penalty
    (Bgp.Damping.penalty d ~now:0.)

let test_no_suppression_when_quiet () =
  let d = Bgp.Damping.create params in
  Bgp.Damping.on_update d ~now:0.;
  Alcotest.(check bool) "single update harmless" false
    (Bgp.Damping.suppressed d ~now:0.);
  Alcotest.(check bool) "no reuse time" true
    (Bgp.Damping.reuse_at d ~now:0. = None)

let test_params_validation () =
  let raises p =
    try
      Bgp.Damping.validate p;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "half life" true (raises { params with half_life = 0. });
  Alcotest.(check bool) "thresholds" true
    (raises { params with reuse_threshold = 3. });
  Alcotest.(check bool) "ceiling" true (raises { params with max_penalty = 1. })

let prop_decay_monotone =
  QCheck.Test.make ~name:"penalty decays monotonically" ~count:100
    QCheck.(pair (int_range 1 10) (pair (float_range 1. 500.) (float_range 1. 500.)))
    (fun (hits, (t1, t2)) ->
      let d = Bgp.Damping.create params in
      for _ = 1 to hits do
        Bgp.Damping.on_withdrawal d ~now:0.
      done;
      let early = Float.min t1 t2 and late = Float.max t1 t2 in
      Bgp.Damping.penalty d ~now:late
      <= Bgp.Damping.penalty d ~now:early +. 1e-9)

(* --- speaker integration --- *)

let path = Bgp.As_path.of_list

let prefix0 = Bgp.Prefix.make ~origin:0 ()

let speaker_with_damping () =
  let engine = Dessim.Engine.create () in
  let outbox = Queue.create () in
  let config =
    { Bgp.Config.default with damping = Some params; mrai = 0. }
  in
  let speaker =
    Bgp.Speaker.create ~engine ~config
      ~rng:(Dessim.Rng.create ~seed:1)
      ~node:5 ~peers:[ 4; 6 ]
      ~emit:(fun ~peer msg -> Queue.add (peer, msg) outbox)
      ~on_next_hop_change:(fun ~prefix:_ ~next_hop:_ -> ())
      ()
  in
  (engine, speaker)

let flap engine speaker times =
  for _ = 1 to times do
    Bgp.Speaker.handle_msg speaker ~from:4
      (Bgp.Msg.Announce { prefix = prefix0; path = path [ 4; 0 ] });
    Bgp.Speaker.handle_msg speaker ~from:4 (Bgp.Msg.Withdraw { prefix = prefix0 });
    ignore engine
  done

let test_speaker_suppresses_flapping_peer () =
  let engine, speaker = speaker_with_damping () in
  (* a stable alternative exists via 6 *)
  Bgp.Speaker.handle_msg speaker ~from:6
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 6; 9; 0 ] });
  flap engine speaker 2;
  (* two withdrawals + two updates = 3.0 penalty: suppressed *)
  Alcotest.(check (list int)) "peer 4 suppressed" [ 4 ]
    (Bgp.Speaker.suppressed_peers speaker prefix0);
  (* 4 re-announces its (shorter) path, but damping hides it *)
  Bgp.Speaker.handle_msg speaker ~from:4
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 4; 0 ] });
  Alcotest.(check bool) "stable path wins despite being longer" true
    (Bgp.Speaker.next_hop speaker prefix0 = Some 6)

let test_speaker_reuses_after_decay () =
  let engine, speaker = speaker_with_damping () in
  Bgp.Speaker.handle_msg speaker ~from:6
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 6; 9; 0 ] });
  flap engine speaker 2;
  Bgp.Speaker.handle_msg speaker ~from:4
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 4; 0 ] });
  Alcotest.(check bool) "suppressed now" true
    (Bgp.Speaker.next_hop speaker prefix0 = Some 6);
  (* the reuse timer fires once the penalty decays; the shorter path
     then takes over with no further messages *)
  Dessim.Engine.run engine;
  Alcotest.(check (list int)) "no longer suppressed" []
    (Bgp.Speaker.suppressed_peers speaker prefix0);
  Alcotest.(check bool) "short path reinstated" true
    (Bgp.Speaker.next_hop speaker prefix0 = Some 4)

(* A session reset drops the peer's flap state with its routes, so the
   re-established session starts with no penalty. *)
let test_speaker_session_reset_forgets_flaps () =
  let engine, speaker = speaker_with_damping () in
  Bgp.Speaker.handle_msg speaker ~from:6
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 6; 9; 0 ] });
  flap engine speaker 2;
  Alcotest.(check (list int)) "peer 4 suppressed" [ 4 ]
    (Bgp.Speaker.suppressed_peers speaker prefix0);
  Bgp.Speaker.session_down speaker ~peer:4;
  Bgp.Speaker.session_up speaker ~peer:4;
  Bgp.Speaker.handle_msg speaker ~from:4
    (Bgp.Msg.Announce { prefix = prefix0; path = path [ 4; 0 ] });
  Alcotest.(check (list int)) "nothing suppressed" []
    (Bgp.Speaker.suppressed_peers speaker prefix0);
  Alcotest.(check bool) "short path wins" true
    (Bgp.Speaker.next_hop speaker prefix0 = Some 4)

let test_speaker_without_damping_never_suppresses () =
  let engine = Dessim.Engine.create () in
  let speaker =
    Bgp.Speaker.create ~engine ~config:Bgp.Config.default
      ~rng:(Dessim.Rng.create ~seed:1)
      ~node:5 ~peers:[ 4 ]
      ~emit:(fun ~peer:_ _ -> ())
      ~on_next_hop_change:(fun ~prefix:_ ~next_hop:_ -> ())
      ()
  in
  flap engine speaker 10;
  Alcotest.(check (list int)) "nothing suppressed" []
    (Bgp.Speaker.suppressed_peers speaker prefix0)

(* --- end to end: a flapping link under damping --- *)

let test_damping_on_tshort () =
  (* a T_short flap on the b-clique core link: with damping, node n's
     direct route to the destination accrues penalty at its neighbors;
     without, the network re-converges directly *)
  let n = 4 in
  let graph = Topo.Generators.b_clique n in
  let event = Bgp.Routing_sim.Tshort { a = 0; b = n; down_for = 10. } in
  let damped_config =
    {
      Bgp.Config.default with
      damping =
        Some
          {
            Bgp.Damping.default_params with
            half_life = 60.;
            suppress_threshold = 1.4;
          };
    }
  in
  let plain = Bgp.Routing_sim.run ~graph ~origin:0 ~event ~seed:1 () in
  let damped =
    Bgp.Routing_sim.run ~config:damped_config ~graph ~origin:0 ~event ~seed:1 ()
  in
  Alcotest.(check bool) "both converge" true (plain.converged && damped.converged);
  (* damping delays the return to the direct path: the network-wide
     quiet time is at least as late as without damping *)
  Alcotest.(check bool) "damping never speeds the flap up" true
    (Bgp.Routing_sim.convergence_time damped
    >= Bgp.Routing_sim.convergence_time plain -. 1e-6)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "damping"
    [
      ( "figure-of-merit",
        [
          tc "penalty accumulates and decays" test_penalty_accumulates_and_decays;
          tc "suppression hysteresis" test_suppression_hysteresis;
          tc "reuse time prediction" test_reuse_at_prediction;
          tc "penalty ceiling" test_penalty_ceiling;
          tc "quiet routes never suppressed" test_no_suppression_when_quiet;
          tc "params validation" test_params_validation;
          QCheck_alcotest.to_alcotest prop_decay_monotone;
        ] );
      ( "speaker",
        [
          tc "suppresses a flapping peer" test_speaker_suppresses_flapping_peer;
          tc "reuses after decay" test_speaker_reuses_after_decay;
          tc "session reset forgets flaps"
            test_speaker_session_reset_forgets_flaps;
          tc "no damping, no suppression"
            test_speaker_without_damping_never_suppresses;
        ] );
      ("end-to-end", [ tc "T_short under damping" test_damping_on_tshort ]);
    ]

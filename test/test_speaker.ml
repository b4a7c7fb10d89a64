(* Unit tests for the BGP speaker: decision process, path-based poison
   reverse, adj-rib-out duplicate suppression, MRAI interaction, the
   four enhancements, and session teardown.

   The harness wires a speaker to a recording emit callback; tests
   deliver messages by calling [handle_msg] directly, so every protocol
   step is observable and deterministic. *)

let path = Bgp.As_path.of_list

let prefix0 = Bgp.Prefix.make ~origin:0 ()

type harness = {
  engine : Dessim.Engine.t;
  speaker : Bgp.Speaker.t;
  outbox : (int * Bgp.Msg.t) Queue.t;  (* (peer, msg) in emission order *)
  nh_changes : (int option) Queue.t;
}

let make ?(config = { Bgp.Config.default with mrai_jitter_min = 1. }) ~node
    ~peers () =
  let engine = Dessim.Engine.create () in
  let outbox = Queue.create () in
  let nh_changes = Queue.create () in
  let speaker =
    Bgp.Speaker.create ~engine ~config
      ~rng:(Dessim.Rng.create ~seed:1)
      ~node ~peers
      ~emit:(fun ~peer msg -> Queue.add (peer, msg) outbox)
      ~on_next_hop_change:(fun ~prefix:_ ~next_hop ->
        Queue.add next_hop nh_changes)
      ()
  in
  { engine; speaker; outbox; nh_changes }

let drain q = List.of_seq (Queue.to_seq q) |> fun l -> Queue.clear q; l

let announce h ~from l =
  Bgp.Speaker.handle_msg h.speaker ~from
    (Bgp.Msg.Announce { prefix = prefix0; path = path l })

let withdraw h ~from =
  Bgp.Speaker.handle_msg h.speaker ~from (Bgp.Msg.Withdraw { prefix = prefix0 })

let msgs_equal = List.equal (fun (p1, m1) (p2, m2) -> p1 = p2 && m1 = m2)

let check_msgs what expected actual =
  if not (msgs_equal expected actual) then begin
    let render (peer, msg) =
      Format.asprintf "-> %d: %a" peer Bgp.Msg.pp msg
    in
    Alcotest.failf "%s:\nexpected: %s\nactual:   %s" what
      (String.concat "; " (List.map render expected))
      (String.concat "; " (List.map render actual))
  end

let ann peer l = (peer, Bgp.Msg.Announce { prefix = prefix0; path = path l })

let wd peer = (peer, Bgp.Msg.Withdraw { prefix = prefix0 })

(* --- origination and basic decision --- *)

let test_originate_announces_to_all () =
  let h = make ~node:0 ~peers:[ 1; 2; 3 ] () in
  Bgp.Speaker.originate h.speaker prefix0;
  check_msgs "origination" [ ann 1 [ 0 ]; ann 2 [ 0 ]; ann 3 [ 0 ] ]
    (drain h.outbox);
  Alcotest.(check bool) "local best" true
    (Bgp.Speaker.best h.speaker prefix0 = Some (None, Bgp.As_path.empty))

let test_adopts_and_propagates () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check bool) "next hop" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 4);
  check_msgs "propagation" [ ann 4 [ 5; 4; 0 ]; ann 6 [ 5; 4; 0 ] ]
    (drain h.outbox);
  Alcotest.(check bool) "nh change recorded" true
    (drain h.nh_changes = [ Some 4 ])

let test_prefers_shorter_path () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 4; 0 ];
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check bool) "switched to shorter" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 4)

let test_tie_break_lower_id () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 0 ];
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check bool) "lower peer id wins" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 4)

let test_better_path_does_not_flap () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  ignore (drain h.nh_changes);
  (* a worse path from the other peer must not change anything *)
  announce h ~from:6 [ 6; 4; 0 ];
  check_msgs "no update for worse path" [] (drain h.outbox);
  Alcotest.(check bool) "no nh change" true (drain h.nh_changes = [])

(* --- poison reverse --- *)

let test_poison_reverse_discards () =
  let h = make ~node:4 ~peers:[ 5; 6 ] () in
  announce h ~from:6 [ 6; 4; 0 ];
  Alcotest.(check bool) "not adopted" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  Alcotest.(check (list (pair int string)))
    "not stored" []
    (List.map
       (fun (p, pa) -> (p, Bgp.As_path.to_string pa))
       (Bgp.Speaker.rib_in h.speaker prefix0))

let test_poisoned_update_is_implicit_withdraw () =
  let h = make ~node:4 ~peers:[ 5 ] () in
  announce h ~from:5 [ 5; 0 ];
  Alcotest.(check bool) "using 5" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 5);
  ignore (drain h.outbox);
  (* 5 switches to a path through us: its entry must vanish *)
  announce h ~from:5 [ 5; 4; 0 ];
  Alcotest.(check bool) "route lost" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  check_msgs "withdrawal propagates" [ wd 5 ] (drain h.outbox)

(* --- withdrawals --- *)

let test_withdrawal_falls_back () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  announce h ~from:6 [ 6; 4; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  (* falls back to the (stale) longer path through 6 — the very
     mechanism behind the paper's transient loops *)
  Alcotest.(check bool) "fallback" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 6)

let test_withdrawal_without_alternative () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  Alcotest.(check bool) "no route" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  check_msgs "explicit withdrawals, sent immediately"
    [ wd 4; wd 6 ]
    (drain h.outbox)

let test_withdrawal_to_peer_without_state_suppressed () =
  let h = make ~node:5 ~peers:[ 4 ] () in
  (* nothing ever announced: a lost route must not generate a
     withdrawal *)
  announce h ~from:4 [ 4; 9; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  (* peer 4 got our announcement earlier, so exactly one withdrawal *)
  check_msgs "single withdrawal" [ wd 4 ] (drain h.outbox);
  withdraw h ~from:4;
  check_msgs "idempotent" [] (drain h.outbox)

(* --- duplicate suppression and MRAI --- *)

let test_duplicate_announcement_suppressed () =
  let h = make ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  (* the same path re-announced: best is unchanged, nothing emitted *)
  announce h ~from:4 [ 4; 0 ];
  check_msgs "suppressed" [] (drain h.outbox)

let test_mrai_delays_second_announcement () =
  let config = { Bgp.Config.default with mrai = 30.; mrai_jitter_min = 1. } in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  (* 4's path worsens; our best switches to a longer path via 4 *)
  announce h ~from:4 [ 4; 9; 0 ];
  (* the new announcement is pending behind the MRAI timer *)
  check_msgs "pending" [] (drain h.outbox);
  Dessim.Engine.run h.engine;
  check_msgs "released at expiry"
    [ ann 4 [ 5; 4; 9; 0 ]; ann 6 [ 5; 4; 9; 0 ] ]
    (drain h.outbox);
  (* the pending announcements went out exactly one MRAI after the
     first ones; the clock then advanced through the timers' final
     no-op expirations *)
  Alcotest.(check bool) "at least one MRAI passed" true
    (Dessim.Engine.now h.engine >= 30.)

(* --- SSLD --- *)

let test_ssld_sends_withdrawal_instead () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ssld |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  (* the paper's Fig 1 situation: path (5 4 0) is doomed at 4; SSLD
     suppresses it there but announces normally to 6 *)
  check_msgs "ssld" [ ann 6 [ 5; 4; 0 ] ] (drain h.outbox);
  Alcotest.(check bool) "nothing advertised to 4" true
    (Bgp.Speaker.advertised_to h.speaker prefix0 ~peer:4 = None)

let test_ssld_withdraws_previous_advertisement () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ssld |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 0 ];
  (* towards 6 itself, the (5 6 0) announcement is doomed and SSLD
     withholds it — and there is nothing to withdraw yet *)
  check_msgs "first: only peer 4 hears" [ ann 4 [ 5; 6; 0 ] ] (drain h.outbox);
  (* best switches to a path through 4: peer 4 must get an immediate
     withdrawal (not an MRAI-delayed poisoned announcement), while
     peer 6 — whose MRAI timer never started — hears the new path at
     once *)
  announce h ~from:4 [ 4; 0 ];
  check_msgs "ssld withdrawal plus fresh announcement"
    [ wd 4; ann 6 [ 5; 4; 0 ] ]
    (drain h.outbox)

(* --- WRATE --- *)

let test_wrate_delays_withdrawal () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Wrate |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  (* without WRATE this withdrawal would be immediate *)
  check_msgs "withdrawal held" [] (drain h.outbox);
  Dessim.Engine.run h.engine;
  check_msgs "withdrawal after MRAI" [ wd 4 ] (drain h.outbox)

let test_wrate_announcement_supersedes_pending_withdrawal () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Wrate |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  (* a new path arrives while the withdrawal is still pending *)
  announce h ~from:6 [ 6; 0 ];
  Dessim.Engine.run h.engine;
  (* peer 4 never sees the interim unreachability, only the new path *)
  let to_4 =
    List.filter (fun (p, _) -> p = 4) (drain h.outbox)
  in
  check_msgs "only the announcement" [ ann 4 [ 5; 6; 0 ] ] to_4

(* --- Assertion --- *)

let test_assertion_purges_on_withdrawal () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Assertion |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  (* the paper's Fig 1(b): node 5 holds (4 0) from 4 and (6 4 0) from 6;
     when 4 withdraws, assertion also removes the path through 4 *)
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  announce h ~from:6 [ 6; 4; 0 ];
  ignore (drain h.outbox);
  withdraw h ~from:4;
  Alcotest.(check bool) "backup purged too" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  Alcotest.(check int) "rib empty" 0
    (List.length (Bgp.Speaker.rib_in h.speaker prefix0))

let test_assertion_purges_stale_subpath () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Assertion |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 4; 0 ];
  (* 4 then declares a different path: 6's entry (through 4) is stale *)
  announce h ~from:4 [ 4; 9; 0 ];
  let rib = Bgp.Speaker.rib_in h.speaker prefix0 in
  Alcotest.(check int) "one entry" 1 (List.length rib);
  Alcotest.(check bool) "only 4's fresh path" true
    (match rib with
    | [ (4, p) ] -> Bgp.As_path.equal p (path [ 4; 9; 0 ])
    | _ -> false)

let test_assertion_keeps_consistent_entry () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Assertion |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 4; 0 ];
  (* 4's declared path agrees with the sub-path 6 reported *)
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check int) "both kept" 2
    (List.length (Bgp.Speaker.rib_in h.speaker prefix0))

let test_assertion_ignores_unrelated_entries () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Assertion |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6; 7 ] () in
  announce h ~from:7 [ 7; 0 ];
  announce h ~from:6 [ 6; 4; 0 ];
  withdraw h ~from:4;
  (* 7's path does not involve 4 and must survive *)
  Alcotest.(check bool) "unrelated entry kept" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 7)

(* --- Ghost Flushing --- *)

let test_ghost_flushing_flushes_on_worse_path () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ghost_flushing |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  (* path worsens while the MRAI timer runs: GF sends an immediate
     withdrawal; the longer announcement still follows at expiry *)
  announce h ~from:4 [ 4; 9; 0 ];
  check_msgs "flush withdrawals now" [ wd 4; wd 6 ] (drain h.outbox);
  Dessim.Engine.run h.engine;
  check_msgs "announcement at expiry"
    [ ann 4 [ 5; 4; 9; 0 ]; ann 6 [ 5; 4; 9; 0 ] ]
    (drain h.outbox)

let test_ghost_flushing_no_flush_on_better_path () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ghost_flushing |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 9; 0 ];
  ignore (drain h.outbox);
  (* improvement: no flush, just the (delayed) better announcement *)
  announce h ~from:4 [ 4; 0 ];
  check_msgs "no flush" [] (drain h.outbox);
  Dessim.Engine.run h.engine;
  check_msgs "better path announced"
    [ ann 4 [ 5; 4; 0 ]; ann 6 [ 5; 4; 0 ] ]
    (drain h.outbox)

let test_ghost_flushing_idle_timer_no_flush () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ghost_flushing |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  Dessim.Engine.run h.engine;
  (* timer is idle now: a worse path is announced immediately, so no
     flush withdrawal is needed *)
  announce h ~from:4 [ 4; 9; 0 ];
  check_msgs "direct announcement" [ ann 4 [ 5; 4; 9; 0 ] ] (drain h.outbox)

(* --- session teardown --- *)

let test_session_down_removes_routes () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  announce h ~from:6 [ 6; 4; 0 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_down h.speaker ~peer:4;
  Alcotest.(check (list int)) "peer list" [ 6 ] (Bgp.Speaker.peers h.speaker);
  Alcotest.(check bool) "fallback via 6" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 6);
  (* no messages to the dead peer *)
  let to_4 = List.filter (fun (p, _) -> p = 4) (drain h.outbox) in
  check_msgs "silent towards dead peer" [] to_4

let test_session_up_dumps_table () =
  let h = make ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  (* a brand-new session to 6 comes up: it must hear our best route *)
  Bgp.Speaker.session_up h.speaker ~peer:6;
  Alcotest.(check (list int)) "peer added" [ 4; 6 ] (Bgp.Speaker.peers h.speaker);
  check_msgs "table dump" [ ann 6 [ 5; 4; 0 ] ] (drain h.outbox)

let test_session_up_idempotent () =
  let h = make ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_up h.speaker ~peer:4;
  check_msgs "nothing re-sent to existing peer" [] (drain h.outbox)

let test_session_bounce () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_down h.speaker ~peer:4;
  ignore (drain h.outbox);
  (* the session to 4 comes back: we re-advertise whatever we now hold *)
  Bgp.Speaker.session_up h.speaker ~peer:4;
  Alcotest.(check (list int)) "peers restored" [ 4; 6 ]
    (Bgp.Speaker.peers h.speaker);
  (* we lost our only route when the session died, so nothing to dump *)
  check_msgs "no route, no dump" [] (drain h.outbox);
  (* 4 re-announces and the world recovers *)
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check bool) "route back" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 4)

let test_late_message_from_dead_peer_dropped () =
  (* a message processed after its session died must not resurrect the
     dead peer's routes — there is no withdrawal coming to clean it up *)
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:6 [ 6; 9; 0 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_down h.speaker ~peer:4;
  (* the late delivery: it was queued before the teardown *)
  announce h ~from:4 [ 4; 0 ];
  Alcotest.(check int) "rib untouched" 1
    (List.length (Bgp.Speaker.rib_in h.speaker prefix0));
  Alcotest.(check bool) "best still via live peer" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 6);
  check_msgs "no reaction" [] (drain h.outbox)

let test_session_down_idempotent () =
  let h = make ~node:5 ~peers:[ 4 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_down h.speaker ~peer:4;
  Bgp.Speaker.session_down h.speaker ~peer:4;
  Alcotest.(check (list int)) "empty" [] (Bgp.Speaker.peers h.speaker)

(* --- T_down at the origin --- *)

let test_withdraw_local () =
  let h = make ~node:0 ~peers:[ 1; 2 ] () in
  Bgp.Speaker.originate h.speaker prefix0;
  ignore (drain h.outbox);
  (* neighbors' poisoned announcements arrive; they are discarded *)
  announce h ~from:1 [ 1; 0 ];
  announce h ~from:2 [ 2; 0 ];
  check_msgs "stable" [] (drain h.outbox);
  Bgp.Speaker.withdraw_local h.speaker prefix0;
  Alcotest.(check bool) "unreachable" true
    (Bgp.Speaker.best h.speaker prefix0 = None);
  check_msgs "withdrawals out immediately" [ wd 1; wd 2 ] (drain h.outbox)

let test_route_change_count () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  Alcotest.(check int) "zero" 0 (Bgp.Speaker.route_change_count h.speaker);
  announce h ~from:4 [ 4; 0 ];
  announce h ~from:6 [ 6; 4; 0 ];
  withdraw h ~from:4;
  (* adopt 4, then fall back to 6 = two best-route changes *)
  Alcotest.(check int) "two changes" 2
    (Bgp.Speaker.route_change_count h.speaker)

(* --- policy export filtering in the speaker --- *)

let test_valley_free_export_in_speaker () =
  (* node 5 with provider 4 and customer 6: a provider-learned route
     must reach the customer but never go back up to the provider *)
  let rel self other =
    match (self, other) with
    | 5, 4 -> Bgp.Policy.Provider
    | 5, 6 -> Bgp.Policy.Customer
    | _ -> Bgp.Policy.Peer_rel
  in
  let config =
    {
      Bgp.Config.default with
      policy = Bgp.Policy.gao_rexford ~rel;
      mrai_jitter_min = 1.;
    }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  (* to provider 4: export blocked (and nothing was advertised, so no
     withdrawal either); to customer 6: announced *)
  check_msgs "customer only" [ ann 6 [ 5; 4; 0 ] ] (drain h.outbox);
  Alcotest.(check bool) "nothing at the provider" true
    (Bgp.Speaker.advertised_to h.speaker prefix0 ~peer:4 = None)

(* --- multiple prefixes --- *)

let prefix9 = Bgp.Prefix.make ~origin:9 ()

let announce_p h ~from prefix l =
  Bgp.Speaker.handle_msg h.speaker ~from
    (Bgp.Msg.Announce { prefix; path = path l })

let test_prefixes_are_independent () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce_p h ~from:4 prefix0 [ 4; 0 ];
  announce_p h ~from:6 prefix9 [ 6; 9 ];
  Alcotest.(check bool) "prefix0 via 4" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = Some 4);
  Alcotest.(check bool) "prefix9 via 6" true
    (Bgp.Speaker.next_hop h.speaker prefix9 = Some 6);
  (* withdrawing one prefix leaves the other untouched *)
  withdraw h ~from:4;
  Alcotest.(check bool) "prefix0 gone" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  Alcotest.(check bool) "prefix9 intact" true
    (Bgp.Speaker.next_hop h.speaker prefix9 = Some 6)

let test_mrai_is_per_prefix () =
  let config = { Bgp.Config.default with mrai = 30.; mrai_jitter_min = 1. } in
  let h = make ~config ~node:5 ~peers:[ 4 ] () in
  (* first announcement for prefix0 starts prefix0's timer... *)
  announce_p h ~from:4 prefix0 [ 4; 0 ];
  ignore (drain h.outbox);
  (* ...which must not delay the first announcement for prefix9 *)
  announce_p h ~from:4 prefix9 [ 4; 9 ];
  match drain h.outbox with
  | [ (4, Bgp.Msg.Announce { prefix; _ }) ] ->
      Alcotest.(check bool) "prefix9 immediate" true
        (Bgp.Prefix.equal prefix prefix9)
  | msgs -> Alcotest.failf "expected one announcement, got %d" (List.length msgs)

(* Ghost Flushing keys on the prefix's own interval: prefix9's running
   interval toward peer 6 must not make prefix0's longer path flush. *)
let test_ghost_flushing_per_prefix_interval () =
  let config =
    Bgp.Config.of_enhancement Bgp.Enhancement.Ghost_flushing |> fun c ->
    { c with mrai_jitter_min = 1. }
  in
  let h = make ~config ~node:5 ~peers:[ 4; 6 ] () in
  announce_p h ~from:4 prefix0 [ 4; 0 ];
  Dessim.Engine.run h.engine;
  ignore (drain h.outbox);
  announce_p h ~from:4 prefix9 [ 4; 9 ];
  ignore (drain h.outbox);
  announce_p h ~from:4 prefix0 [ 4; 7; 0 ];
  let to_6_prefix0 =
    List.filter
      (fun (peer, msg) ->
        peer = 6 && Bgp.Prefix.equal (Bgp.Msg.prefix msg) prefix0)
      (drain h.outbox)
  in
  check_msgs "prefix0 to peer 6" [ ann 6 [ 5; 4; 7; 0 ] ] to_6_prefix0

let test_session_down_clears_all_prefixes () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce_p h ~from:4 prefix0 [ 4; 0 ];
  announce_p h ~from:4 prefix9 [ 4; 9 ];
  ignore (drain h.outbox);
  Bgp.Speaker.session_down h.speaker ~peer:4;
  Alcotest.(check bool) "prefix0 lost" true
    (Bgp.Speaker.next_hop h.speaker prefix0 = None);
  Alcotest.(check bool) "prefix9 lost" true
    (Bgp.Speaker.next_hop h.speaker prefix9 = None)

(* The prepended best path is extended once per best route and kept;
   [remap_paths] must drop it, so an announcement after a remap into a
   fresh arena carries a path of that arena, not the old handle. *)
let test_remap_drops_the_exported_path () =
  let h = make ~node:5 ~peers:[ 4; 6 ] () in
  announce h ~from:4 [ 4; 0 ];
  ignore (drain h.outbox);
  let fresh = Bgp.As_path.Table.create () in
  Bgp.Speaker.remap_paths h.speaker ~f:(Bgp.As_path.reintern ~table:fresh);
  Bgp.Speaker.set_path_table h.speaker fresh;
  (* a session bounce re-dumps the unchanged best route to peer 6 *)
  Bgp.Speaker.session_down h.speaker ~peer:6;
  Bgp.Speaker.session_up h.speaker ~peer:6;
  match drain h.outbox with
  | [ (6, Bgp.Msg.Announce { path = p; _ }) ] ->
      Alcotest.(check (list int)) "same path" [ 5; 4; 0 ] (Bgp.As_path.to_list p);
      Alcotest.(check bool) "interned in the fresh arena" true
        (Bgp.As_path.reintern ~table:fresh p == p)
  | msgs -> Alcotest.failf "expected one announcement, got %d" (List.length msgs)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "speaker"
    [
      ( "decision",
        [
          tc "origination announces to all" test_originate_announces_to_all;
          tc "adopts and propagates" test_adopts_and_propagates;
          tc "prefers shorter path" test_prefers_shorter_path;
          tc "tie-break by lower id" test_tie_break_lower_id;
          tc "worse path ignored" test_better_path_does_not_flap;
        ] );
      ( "poison-reverse",
        [
          tc "discards path containing self" test_poison_reverse_discards;
          tc "poisoned update = implicit withdraw"
            test_poisoned_update_is_implicit_withdraw;
        ] );
      ( "withdrawals",
        [
          tc "falls back to stale path" test_withdrawal_falls_back;
          tc "no alternative -> withdrawals" test_withdrawal_without_alternative;
          tc "suppressed when peer holds nothing"
            test_withdrawal_to_peer_without_state_suppressed;
        ] );
      ( "rate-limiting",
        [
          tc "duplicate announcements suppressed"
            test_duplicate_announcement_suppressed;
          tc "MRAI delays subsequent announcements"
            test_mrai_delays_second_announcement;
        ] );
      ( "ssld",
        [
          tc "withholds doomed announcement" test_ssld_sends_withdrawal_instead;
          tc "withdraws previous advertisement"
            test_ssld_withdraws_previous_advertisement;
        ] );
      ( "wrate",
        [
          tc "delays withdrawals" test_wrate_delays_withdrawal;
          tc "announcement supersedes pending withdrawal"
            test_wrate_announcement_supersedes_pending_withdrawal;
        ] );
      ( "assertion",
        [
          tc "purges on withdrawal (paper Fig 1b)"
            test_assertion_purges_on_withdrawal;
          tc "purges stale sub-path" test_assertion_purges_stale_subpath;
          tc "keeps consistent entry" test_assertion_keeps_consistent_entry;
          tc "ignores unrelated entries" test_assertion_ignores_unrelated_entries;
        ] );
      ( "ghost-flushing",
        [
          tc "flushes on worse pending path"
            test_ghost_flushing_flushes_on_worse_path;
          tc "no flush on better path"
            test_ghost_flushing_no_flush_on_better_path;
          tc "no flush when timer idle" test_ghost_flushing_idle_timer_no_flush;
        ] );
      ( "sessions",
        [
          tc "session down removes routes" test_session_down_removes_routes;
          tc "session down idempotent" test_session_down_idempotent;
          tc "late message from dead peer dropped"
            test_late_message_from_dead_peer_dropped;
          tc "session up dumps the table" test_session_up_dumps_table;
          tc "session up idempotent" test_session_up_idempotent;
          tc "session bounce recovers" test_session_bounce;
          tc "remap drops the exported path" test_remap_drops_the_exported_path;
        ] );
      ( "origin",
        [
          tc "withdraw_local (T_down)" test_withdraw_local;
          tc "route change count" test_route_change_count;
        ] );
      ( "policy",
        [ tc "valley-free export filtering" test_valley_free_export_in_speaker ]
      );
      ( "multi-prefix",
        [
          tc "prefixes are independent" test_prefixes_are_independent;
          tc "MRAI is per (peer, prefix)" test_mrai_is_per_prefix;
          tc "session down clears all prefixes"
            test_session_down_clears_all_prefixes;
          tc "ghost flushing keys on the prefix's interval"
            test_ghost_flushing_per_prefix_interval;
        ] );
    ]

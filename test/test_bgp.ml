(* Tests for BGP data types and mechanisms below the speaker: AS paths,
   prefixes, messages, policies, configuration and the MRAI rate
   limiter. *)

let path = Bgp.As_path.of_list

(* --- As_path --- *)

let test_path_basics () =
  let p = path [ 5; 6; 4; 0 ] in
  Alcotest.(check int) "length" 4 (Bgp.As_path.length p);
  Alcotest.(check bool) "empty" false (Bgp.As_path.is_empty p);
  Alcotest.(check bool) "head" true (Bgp.As_path.head p = Some 5);
  Alcotest.(check bool) "contains 4" true (Bgp.As_path.contains p 4);
  Alcotest.(check bool) "not contains 7" false (Bgp.As_path.contains p 7);
  Alcotest.(check string) "render" "(5 6 4 0)" (Bgp.As_path.to_string p)

let test_path_empty () =
  Alcotest.(check int) "length" 0 (Bgp.As_path.length Bgp.As_path.empty);
  Alcotest.(check bool) "head" true (Bgp.As_path.head Bgp.As_path.empty = None);
  Alcotest.(check string) "render" "()"
    (Bgp.As_path.to_string Bgp.As_path.empty)

let test_path_rejects_repeats () =
  Alcotest.(check bool) "of_list" true
    (try
       ignore (path [ 1; 2; 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "prepend" true
    (try
       ignore (Bgp.As_path.prepend 2 (path [ 1; 2 ]));
       false
     with Invalid_argument _ -> true)

let test_path_prepend () =
  let p = Bgp.As_path.prepend 5 (path [ 4; 0 ]) in
  Alcotest.(check (list int)) "prepend" [ 5; 4; 0 ] (Bgp.As_path.to_list p)

let test_path_suffix_from () =
  let p = path [ 5; 6; 4; 0 ] in
  Alcotest.(check bool) "suffix from 6" true
    (Bgp.As_path.suffix_from p 6 = Some (path [ 6; 4; 0 ]));
  Alcotest.(check bool) "suffix from head" true
    (Bgp.As_path.suffix_from p 5 = Some p);
  Alcotest.(check bool) "absent" true (Bgp.As_path.suffix_from p 9 = None)

let test_path_compare_prefers_shorter () =
  Alcotest.(check bool) "shorter wins" true
    (Bgp.As_path.compare (path [ 9; 0 ]) (path [ 1; 2; 0 ]) < 0)

let test_path_compare_ties_lexicographic () =
  (* equal length: the smaller advertising neighbor (head) wins — the
     paper's "smaller node ID" tie-break *)
  Alcotest.(check bool) "lower head wins" true
    (Bgp.As_path.compare (path [ 2; 0 ]) (path [ 3; 0 ]) < 0);
  Alcotest.(check int) "equal" 0 (Bgp.As_path.compare (path [ 2; 0 ]) (path [ 2; 0 ]))

let test_path_compare_lex_ignores_length () =
  (* lexicographic order can prefer a longer path; the composite
     [compare] never does *)
  let short = path [ 3; 0 ] and long = path [ 2; 9; 0 ] in
  Alcotest.(check bool) "lex prefers lower head" true
    (Bgp.As_path.compare_lex long short < 0);
  Alcotest.(check bool) "compare prefers shorter" true
    (Bgp.As_path.compare short long < 0)

let test_path_rejects_duplicate_heavy_lists () =
  (* the duplicate scan runs on the materialized array (no per-element
     Hashtbl); make sure it still catches repeats at every position *)
  let raises l =
    try
      ignore (path l);
      false
    with Invalid_argument m -> String.length m > 0
  in
  Alcotest.(check bool) "adjacent head" true (raises [ 7; 7; 1; 2 ]);
  Alcotest.(check bool) "far apart" true (raises [ 7; 1; 2; 3; 4; 5; 7 ]);
  Alcotest.(check bool) "tail pair" true (raises [ 1; 2; 3; 9; 9 ]);
  Alcotest.(check bool) "all same" true (raises [ 4; 4; 4; 4; 4; 4 ]);
  Alcotest.(check bool) "duplicate-free long path ok" false
    (raises [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ])

let test_arena_interning_is_physical () =
  let table = Bgp.As_path.Table.create () in
  let p = Bgp.As_path.of_list ~table [ 5; 4; 0 ] in
  let q = Bgp.As_path.of_list ~table [ 5; 4; 0 ] in
  Alcotest.(check bool) "same handle" true (p == q);
  (* the extend memo must return the interned child, not a fresh one *)
  let base = Bgp.As_path.of_list ~table [ 4; 0 ] in
  let a = Bgp.As_path.extend ~table 5 base in
  let b = Bgp.As_path.extend ~table 5 base in
  Alcotest.(check bool) "memoized extend, same handle" true (a == b && a == p)

let test_arena_cross_arena_equal () =
  let t1 = Bgp.As_path.Table.create () in
  let t2 = Bgp.As_path.Table.create () in
  let p = Bgp.As_path.of_list ~table:t1 [ 5; 4; 0 ] in
  let q = Bgp.As_path.of_list ~table:t2 [ 5; 4; 0 ] in
  let r = Bgp.As_path.of_list ~table:t2 [ 5; 4; 1 ] in
  Alcotest.(check bool) "distinct handles" true (not (p == q));
  Alcotest.(check bool) "structurally equal" true (Bgp.As_path.equal p q);
  Alcotest.(check bool) "structurally distinct" false (Bgp.As_path.equal p r);
  Alcotest.(check int) "hash is arena-independent" (Bgp.As_path.hash p)
    (Bgp.As_path.hash q)

let test_arena_id_stability () =
  Alcotest.(check int) "empty has id 0" 0 (Bgp.As_path.id Bgp.As_path.empty);
  let table = Bgp.As_path.Table.create () in
  Alcotest.(check int) "empty in any arena" 0
    (Bgp.As_path.id (Bgp.As_path.of_list ~table []));
  let p1 = Bgp.As_path.of_list ~table [ 1; 0 ] in
  let p2 = Bgp.As_path.of_list ~table [ 2; 0 ] in
  Alcotest.(check int) "first interned path" 1 (Bgp.As_path.id p1);
  Alcotest.(check int) "second interned path" 2 (Bgp.As_path.id p2);
  Alcotest.(check int) "re-interning keeps the id" 1
    (Bgp.As_path.id (Bgp.As_path.of_list ~table [ 1; 0 ]))

let test_arena_size_and_words () =
  let table = Bgp.As_path.Table.create () in
  Alcotest.(check int) "fresh arena empty" 0 (Bgp.As_path.Table.size table);
  Alcotest.(check int) "fresh arena holds no words" 0
    (Bgp.As_path.Table.words table);
  ignore (Bgp.As_path.of_list ~table [ 1; 0 ]);
  ignore (Bgp.As_path.of_list ~table [ 2; 0 ]);
  ignore (Bgp.As_path.of_list ~table [ 1; 0 ]);
  ignore (Bgp.As_path.of_list ~table []);
  Alcotest.(check int) "two distinct non-empty paths" 2
    (Bgp.As_path.Table.size table);
  Alcotest.(check bool) "words gauge grew" true
    (Bgp.As_path.Table.words table > 0)

let test_msg_pp_renders () =
  let prefix = Bgp.Prefix.make ~origin:0 () in
  Alcotest.(check string) "announce" "announce p0 (5 4 0)"
    (Format.asprintf "%a" Bgp.Msg.pp
       (Bgp.Msg.Announce { prefix; path = path [ 5; 4; 0 ] }));
  Alcotest.(check string) "withdraw" "withdraw p0"
    (Format.asprintf "%a" Bgp.Msg.pp (Bgp.Msg.Withdraw { prefix }));
  Alcotest.(check string) "indexed prefix" "p3.1"
    (Format.asprintf "%a" Bgp.Prefix.pp (Bgp.Prefix.make ~origin:3 ~index:1 ()))

(* --- Prefix --- *)

let test_prefix () =
  let p = Bgp.Prefix.make ~origin:3 () in
  let q = Bgp.Prefix.make ~origin:3 ~index:1 () in
  Alcotest.(check int) "origin" 3 (Bgp.Prefix.origin p);
  Alcotest.(check bool) "distinct" false (Bgp.Prefix.equal p q);
  Alcotest.(check bool) "self equal" true (Bgp.Prefix.equal p p);
  Alcotest.(check bool) "rejects negative" true
    (try
       ignore (Bgp.Prefix.make ~origin:(-1) ());
       false
     with Invalid_argument _ -> true)

(* --- Msg --- *)

let test_msg_kinds () =
  let prefix = Bgp.Prefix.make ~origin:0 () in
  Alcotest.(check bool) "prefix" true
    (Bgp.Prefix.equal (Bgp.Msg.prefix (Bgp.Msg.Withdraw { prefix })) prefix)

(* --- Policy --- *)

(* A candidate as the decision process passes it: a peer and its path. *)
let cand peer l = (peer, path l)

let prefer (p : Bgp.Policy.t) ~self (q, a) (r, b) = p.prefer ~self q a r b

let test_shortest_path_policy () =
  let p = Bgp.Policy.shortest_path in
  Alcotest.(check bool) "shorter preferred" true
    (prefer p ~self:9 (cand 1 [ 1; 0 ]) (cand 2 [ 2; 3; 0 ]) < 0);
  Alcotest.(check bool) "tie by id" true
    (prefer p ~self:9 (cand 1 [ 1; 0 ]) (cand 2 [ 2; 0 ]) < 0);
  Alcotest.(check bool) "imports all" true (p.import_ok ~self:9 1 (path [ 1; 0 ]));
  Alcotest.(check bool) "exports all" true
    (p.export_ok ~self:9 ~to_peer:1 ~learned_from:(Some 2))

let test_gao_rexford_preference () =
  (* node 0's relationships: 1 is a customer, 2 a peer, 3 a provider *)
  let rel self other =
    match (self, other) with
    | 0, 1 -> Bgp.Policy.Customer
    | 0, 2 -> Bgp.Policy.Peer_rel
    | 0, 3 -> Bgp.Policy.Provider
    | _ -> Bgp.Policy.Peer_rel
  in
  let p = Bgp.Policy.gao_rexford ~rel in
  (* a longer customer route beats a shorter provider route *)
  Alcotest.(check bool) "customer over provider" true
    (prefer p ~self:0 (cand 1 [ 1; 5; 9 ]) (cand 3 [ 3; 9 ]) < 0);
  Alcotest.(check bool) "customer over peer" true
    (prefer p ~self:0 (cand 1 [ 1; 5; 9 ]) (cand 2 [ 2; 9 ]) < 0);
  (* same class: path length decides *)
  Alcotest.(check bool) "same class by length" true
    (prefer p ~self:0 (cand 3 [ 3; 9 ]) (cand 3 [ 3; 5; 9 ]) < 0)

let test_gao_rexford_valley_free_export () =
  let rel self other =
    match (self, other) with
    | 0, 1 -> Bgp.Policy.Customer
    | 0, 2 -> Bgp.Policy.Peer_rel
    | 0, 3 -> Bgp.Policy.Provider
    | _ -> Bgp.Policy.Peer_rel
  in
  let p = Bgp.Policy.gao_rexford ~rel in
  (* own routes go everywhere *)
  Alcotest.(check bool) "own to provider" true
    (p.export_ok ~self:0 ~to_peer:3 ~learned_from:None);
  (* customer routes go everywhere *)
  Alcotest.(check bool) "customer route to provider" true
    (p.export_ok ~self:0 ~to_peer:3 ~learned_from:(Some 1));
  (* provider routes only to customers *)
  Alcotest.(check bool) "provider route to customer" true
    (p.export_ok ~self:0 ~to_peer:1 ~learned_from:(Some 3));
  Alcotest.(check bool) "provider route to peer blocked" false
    (p.export_ok ~self:0 ~to_peer:2 ~learned_from:(Some 3));
  Alcotest.(check bool) "peer route to provider blocked" false
    (p.export_ok ~self:0 ~to_peer:3 ~learned_from:(Some 2))

let test_relationships_by_degree () =
  let g = Topo.Generators.star 4 in
  (* hub 0 has degree 3; leaves degree 1 *)
  Alcotest.(check bool) "hub is provider" true
    (Bgp.Policy.relationships_by_degree g 1 0 = Bgp.Policy.Provider);
  Alcotest.(check bool) "leaf is customer" true
    (Bgp.Policy.relationships_by_degree g 0 1 = Bgp.Policy.Customer);
  Alcotest.(check bool) "equal degree peers" true
    (Bgp.Policy.relationships_by_degree g 1 2 = Bgp.Policy.Peer_rel)

(* --- Enhancement / Config --- *)

let test_enhancement_names_roundtrip () =
  List.iter
    (fun e ->
      match Bgp.Enhancement.of_string (Bgp.Enhancement.name e) with
      | Some e' when e' = e -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (Bgp.Enhancement.name e))
    Bgp.Enhancement.all;
  Alcotest.(check bool) "unknown" true (Bgp.Enhancement.of_string "nope" = None);
  Alcotest.(check bool) "case-insensitive" true
    (Bgp.Enhancement.of_string "SSLD" = Some Bgp.Enhancement.Ssld)

let test_config_of_enhancement () =
  let open Bgp in
  let std = Config.of_enhancement Enhancement.Standard in
  Alcotest.(check bool) "standard clean" true
    ((not std.wrate) && (not std.ssld) && (not std.assertion)
    && not std.ghost_flushing);
  Alcotest.(check bool) "wrate" true (Config.of_enhancement Enhancement.Wrate).wrate;
  Alcotest.(check bool) "ssld" true (Config.of_enhancement Enhancement.Ssld).ssld;
  Alcotest.(check bool) "assertion" true
    (Config.of_enhancement Enhancement.Assertion).assertion;
  Alcotest.(check bool) "ghost flushing" true
    (Config.of_enhancement Enhancement.Ghost_flushing).ghost_flushing;
  Alcotest.(check (float 0.)) "mrai override" 5.
    (Config.of_enhancement ~mrai:5. Enhancement.Standard).mrai

let test_config_validation () =
  let raises c =
    try
      Bgp.Config.validate c;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative mrai" true
    (raises { Bgp.Config.default with mrai = -1. });
  Alcotest.(check bool) "NaN mrai" true
    (raises { Bgp.Config.default with mrai = nan });
  Alcotest.(check bool) "infinite mrai" true
    (raises { Bgp.Config.default with mrai = infinity });
  Alcotest.(check bool) "jitter 0" true
    (raises { Bgp.Config.default with mrai_jitter_min = 0. });
  Alcotest.(check bool) "jitter > 1" true
    (raises { Bgp.Config.default with mrai_jitter_min = 1.5 });
  Alcotest.(check bool) "NaN jitter" true
    (raises { Bgp.Config.default with mrai_jitter_min = nan });
  Alcotest.(check bool) "mrai 0 and jitter 1 accepted" false
    (raises { Bgp.Config.default with mrai = 0.; mrai_jitter_min = 1. })

(* --- Mrai --- *)

(* A harness recording every transmitted message with its time; the
   transmit callback can also simulate duplicate suppression. *)
let mrai_harness ?(suppress = fun _ -> false) ~interval () =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let transmit ~key:_ msg =
    if suppress msg then false
    else begin
      sent := (msg, Dessim.Engine.now engine) :: !sent;
      true
    end
  in
  let mrai =
    Bgp.Mrai.create ~engine ~draw_interval:(fun () -> interval) ~transmit ()
  in
  (engine, mrai, fun () -> List.rev !sent)

let test_mrai_first_send_immediate () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  Alcotest.(check bool) "sent now" true (sent () = [ ("a", 0.) ]);
  Alcotest.(check bool) "timer running" true (Bgp.Mrai.timer_running mrai);
  Dessim.Engine.run engine;
  Alcotest.(check bool) "timer drained" false (Bgp.Mrai.timer_running mrai)

let test_mrai_spaces_consecutive_updates () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore
    (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "b delayed to expiry" true
    (sent () = [ ("a", 0.); ("b", 30.) ])

let test_mrai_pending_replaced () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore (Dessim.Engine.schedule engine ~at:2. (fun () -> Bgp.Mrai.offer mrai "c"));
  Dessim.Engine.run engine;
  (* "b" was superseded before the timer fired *)
  Alcotest.(check bool) "latest wins" true (sent () = [ ("a", 0.); ("c", 30.) ])

let test_mrai_timer_restarts_after_pending_send () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore (Dessim.Engine.schedule engine ~at:40. (fun () -> Bgp.Mrai.offer mrai "c"));
  Dessim.Engine.run engine;
  (* after "b" goes out at 30, the timer restarts; "c" (offered at 40)
     must wait until 60 *)
  Alcotest.(check bool) "second interval enforced" true
    (sent () = [ ("a", 0.); ("b", 30.); ("c", 60.) ])

let test_mrai_suppressed_send_stops_timer () =
  let engine, mrai, sent =
    mrai_harness ~suppress:(fun m -> m = "dup") ~interval:30. ()
  in
  Bgp.Mrai.offer mrai "dup";
  Alcotest.(check bool) "nothing sent" true (sent () = []);
  Alcotest.(check bool) "timer not started" false (Bgp.Mrai.timer_running mrai);
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "x"));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "real message immediate" true (sent () = [ ("x", 1.) ])

let test_mrai_send_now_bypasses () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore
    (Dessim.Engine.schedule engine ~at:2. (fun () ->
         Bgp.Mrai.send_now mrai ~keep_pending:false "w"));
  Dessim.Engine.run engine;
  (* the withdrawal goes out immediately and discards pending "b" *)
  Alcotest.(check bool) "withdrawal immediate, pending dropped" true
    (sent () = [ ("a", 0.); ("w", 2.) ])

let test_mrai_send_now_keep_pending () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore
    (Dessim.Engine.schedule engine ~at:2. (fun () ->
         Bgp.Mrai.send_now mrai ~keep_pending:true "flush"));
  Dessim.Engine.run engine;
  (* Ghost Flushing: the flush precedes the still-pending announcement *)
  Alcotest.(check bool) "flush then announcement" true
    (sent () = [ ("a", 0.); ("flush", 2.); ("b", 30.) ])

let test_mrai_reset () =
  let engine, mrai, sent = mrai_harness ~interval:30. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore (Dessim.Engine.schedule engine ~at:2. (fun () -> Bgp.Mrai.reset mrai));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "pending dropped on reset" true (sent () = [ ("a", 0.) ]);
  Alcotest.(check bool) "idle" false (Bgp.Mrai.timer_running mrai)

let test_mrai_zero_interval () =
  (* M = 0: the timer fires at the same instant, so updates flow with
     no rate limiting *)
  let engine, mrai, sent = mrai_harness ~interval:0. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "no spacing" true (sent () = [ ("a", 0.); ("b", 1.) ])

let test_mrai_negative_key_rejected () =
  let _engine, mrai, sent = mrai_harness ~interval:30. () in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "offer" true
    (raises (fun () -> Bgp.Mrai.offer ~key:(-1) mrai "a"));
  Alcotest.(check bool) "send_now" true
    (raises (fun () ->
         Bgp.Mrai.send_now ~key:(-1) mrai ~keep_pending:false "w"));
  Alcotest.(check bool) "nothing sent" true (sent () = [])

(* --- Fifo (non-collapsing) rate-limiter mode --- *)

let fifo_harness ~interval () =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let transmit ~key:_ msg =
    sent := (msg, Dessim.Engine.now engine) :: !sent;
    true
  in
  let mrai =
    Bgp.Mrai.create ~mode:Bgp.Mrai.Fifo ~engine
      ~draw_interval:(fun () -> interval)
      ~transmit ()
  in
  (engine, mrai, fun () -> List.rev !sent)

let test_fifo_preserves_intermediate_states () =
  let engine, mrai, sent = fifo_harness ~interval:10. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore (Dessim.Engine.schedule engine ~at:2. (fun () -> Bgp.Mrai.offer mrai "c"));
  Alcotest.(check int) "queue holds both" 0 (Bgp.Mrai.pending_count mrai);
  Dessim.Engine.run engine;
  (* unlike Collapse (which would drop "b"), every state is sent, one
     per interval *)
  Alcotest.(check bool) "all transmitted in order" true
    (sent () = [ ("a", 0.); ("b", 10.); ("c", 20.) ])

let test_fifo_pending_count () =
  let engine, mrai, _ = fifo_harness ~interval:10. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore (Dessim.Engine.schedule engine ~at:2. (fun () -> Bgp.Mrai.offer mrai "c"));
  Dessim.Engine.run ~until:5. engine;
  Alcotest.(check int) "two queued" 2 (Bgp.Mrai.pending_count mrai)

let test_fifo_send_now_clears_queue () =
  let engine, mrai, sent = fifo_harness ~interval:10. () in
  Bgp.Mrai.offer mrai "a";
  ignore (Dessim.Engine.schedule engine ~at:1. (fun () -> Bgp.Mrai.offer mrai "b"));
  ignore
    (Dessim.Engine.schedule engine ~at:2. (fun () ->
         Bgp.Mrai.send_now mrai ~keep_pending:false "w"));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "queue superseded" true
    (sent () = [ ("a", 0.); ("w", 2.) ])

let test_fifo_zero_interval_one_release_per_fire () =
  (* A zero interval re-arms its key at the same instant, but the next
     release still waits for the next fire event: one message per
     expiry, one engine event per release. *)
  let engine = Dessim.Engine.create () in
  let log = ref [] in
  let fires = ref 0 in
  let mrai =
    Bgp.Mrai.create ~mode:Bgp.Mrai.Fifo ~engine
      ~on_fire:(fun () ->
        incr fires;
        log := Printf.sprintf "fire%d" !fires :: !log)
      ~draw_interval:(fun () -> 0.)
      ~transmit:(fun ~key:_ msg ->
        log := msg :: !log;
        true)
      ()
  in
  List.iter (Bgp.Mrai.offer mrai) [ "a"; "b"; "c" ];
  Dessim.Engine.run engine;
  Alcotest.(check (list string))
    "one release per fire"
    [ "a"; "fire1"; "b"; "fire2"; "c"; "fire3" ]
    (List.rev !log);
  Alcotest.(check int) "three engine events" 3
    (Dessim.Engine.events_executed engine)

let prop_mrai_spacing =
  (* Whatever the offer schedule, actual transmissions to a peer are
     spaced by at least the MRAI interval. *)
  QCheck.Test.make ~name:"MRAI enforces minimum spacing" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0. 100.))
    (fun offer_times ->
      let interval = 10. in
      let engine, mrai, sent = mrai_harness ~interval () in
      List.iteri
        (fun i t ->
          ignore
            (Dessim.Engine.schedule engine ~at:t (fun () ->
                 Bgp.Mrai.offer mrai (string_of_int i))))
        (List.sort compare offer_times);
      Dessim.Engine.run engine;
      let times = List.map snd (sent ()) in
      let rec spaced = function
        | a :: (b :: _ as rest) ->
            b -. a >= interval -. 1e-9 && spaced rest
        | _ -> true
      in
      spaced times)

(* --- Peer_table: the speaker's slot table --- *)

type slot_op = Add of int | Remove of int | Clear

(* Against a model — the live set, plus the slot each peer got when
   first seen — after every operation: [to_list] is the sorted live set,
   [iter_slots] yields ascending ids each with its first-seen slot, no
   slot ever changes, and [n_slots] counts the distinct peers ever
   added.  Ids run past the initial peers, so newcomers take slots
   after them. *)
let prop_peer_table_slots =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun p -> Add p) (int_range 0 30));
          (4, map (fun p -> Remove p) (int_range 0 30));
          (1, return Clear);
        ])
  in
  let show = function
    | Add p -> Printf.sprintf "add %d" p
    | Remove p -> Printf.sprintf "remove %d" p
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"slot table matches its model" ~count:300
    (QCheck.make
       ~print:(fun (init, ops) ->
         Printf.sprintf "create [%s]; %s"
           (String.concat ";" (List.map string_of_int init))
           (String.concat "; " (List.map show ops)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 8) (int_range 0 15))
           (list_size (int_range 0 40) op)))
    (fun (init, ops) ->
      let t = Bgp.Peer_table.create init in
      let slots = Hashtbl.create 16 in
      let live = ref (List.sort_uniq Int.compare init) in
      List.iteri (fun i p -> Hashtbl.replace slots p i) !live;
      let agrees () =
        let yielded = ref [] in
        Bgp.Peer_table.iter_slots
          (fun slot peer -> yielded := (peer, slot) :: !yielded)
          t;
        Bgp.Peer_table.to_list t = !live
        && List.rev !yielded
           = List.map (fun p -> (p, Hashtbl.find slots p)) !live
        && Bgp.Peer_table.n_slots t = Hashtbl.length slots
        && Bgp.Peer_table.cardinal t = List.length !live
        && List.for_all
             (fun p ->
               let expected =
                 Option.value (Hashtbl.find_opt slots p) ~default:(-1)
               in
               Bgp.Peer_table.slot t p = expected
               && Bgp.Peer_table.mem t p = List.mem p !live
               && (expected < 0 || Bgp.Peer_table.peer_of_slot t expected = p))
             (List.init 31 Fun.id)
      in
      agrees ()
      && List.for_all
           (fun op ->
             (match op with
             | Add p ->
                 Bgp.Peer_table.add t p;
                 if not (Hashtbl.mem slots p) then
                   Hashtbl.replace slots p (Hashtbl.length slots);
                 live := List.sort_uniq Int.compare (p :: !live)
             | Remove p ->
                 Bgp.Peer_table.remove t p;
                 live := List.filter (( <> ) p) !live
             | Clear ->
                 Bgp.Peer_table.clear t;
                 live := []);
             agrees ())
           ops)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgp"
    [
      ( "as-path",
        [
          tc "basics" test_path_basics;
          tc "empty path" test_path_empty;
          tc "rejects repeated AS" test_path_rejects_repeats;
          tc "prepend" test_path_prepend;
          tc "suffix_from" test_path_suffix_from;
          tc "compare prefers shorter" test_path_compare_prefers_shorter;
          tc "compare ties lexicographically" test_path_compare_ties_lexicographic;
          tc "compare_lex ignores length" test_path_compare_lex_ignores_length;
          tc "rejects duplicate-heavy lists"
            test_path_rejects_duplicate_heavy_lists;
          tc "interning is physical" test_arena_interning_is_physical;
          tc "cross-arena equality" test_arena_cross_arena_equal;
          tc "id stability" test_arena_id_stability;
          tc "table size and words" test_arena_size_and_words;
          tc "message rendering" test_msg_pp_renders;
        ] );
      ("prefix", [ tc "basics" test_prefix ]);
      ("slots", [ QCheck_alcotest.to_alcotest prop_peer_table_slots ]);
      ("msg", [ tc "kinds" test_msg_kinds ]);
      ( "policy",
        [
          tc "shortest path (paper policy)" test_shortest_path_policy;
          tc "gao-rexford preference" test_gao_rexford_preference;
          tc "gao-rexford valley-free export" test_gao_rexford_valley_free_export;
          tc "degree-based relationships" test_relationships_by_degree;
        ] );
      ( "config",
        [
          tc "enhancement names roundtrip" test_enhancement_names_roundtrip;
          tc "of_enhancement" test_config_of_enhancement;
          tc "validation" test_config_validation;
        ] );
      ( "mrai",
        [
          tc "first send immediate" test_mrai_first_send_immediate;
          tc "spaces consecutive updates" test_mrai_spaces_consecutive_updates;
          tc "pending replaced by newer" test_mrai_pending_replaced;
          tc "timer restarts after pending send"
            test_mrai_timer_restarts_after_pending_send;
          tc "suppressed send stops timer" test_mrai_suppressed_send_stops_timer;
          tc "send_now bypasses timer" test_mrai_send_now_bypasses;
          tc "send_now can keep pending (ghost flushing)"
            test_mrai_send_now_keep_pending;
          tc "reset" test_mrai_reset;
          tc "zero interval disables limiting" test_mrai_zero_interval;
          tc "negative key rejected" test_mrai_negative_key_rejected;
          tc "fifo mode preserves intermediate states"
            test_fifo_preserves_intermediate_states;
          tc "fifo pending count" test_fifo_pending_count;
          tc "fifo send_now clears the queue" test_fifo_send_now_clears_queue;
          tc "fifo zero interval: one release per fire"
            test_fifo_zero_interval_one_release_per_fire;
          QCheck_alcotest.to_alcotest prop_mrai_spacing;
        ] );
    ]

(* Tests for the observability layer (lib/obs): event serialization,
   sinks, the counter registry, profiles, digests — plus the trace
   properties the bus guarantees on real simulation runs:

   - every Update_recv is preceded by a matching unconsumed Update_sent
     (chaos-free scenarios only: message duplication would deliberately
     break the correspondence);
   - the number of Fib_change events equals the FIB history's
     change_count (each simulator's FIB hook records the change, then
     emits the event);
   - counter snapshots taken at increasing times are monotone under
     Counters.le. *)

let ev_sent ~time ~src ~dst ~withdraw =
  Obs.Event.Update_sent { time; src; dst; withdraw; prefix = None }

let ev_sent_pfx ~prefix ~time ~src ~dst ~withdraw =
  Obs.Event.Update_sent { time; src; dst; withdraw; prefix = Some prefix }

(* --- events --- *)

let test_event_json_shapes () =
  Alcotest.(check string) "update_sent"
    {|{"ev":"update_sent","t":1.5,"src":0,"dst":3,"kind":"announce"}|}
    (Obs.Event.to_json (ev_sent ~time:1.5 ~src:0 ~dst:3 ~withdraw:false));
  Alcotest.(check string) "withdraw kind"
    {|{"ev":"update_recv","t":2,"node":3,"from":0,"kind":"withdraw"}|}
    (Obs.Event.to_json
       (Obs.Event.Update_recv
          { time = 2.; node = 3; from = 0; withdraw = true; prefix = None }));
  Alcotest.(check string) "fib change to none"
    {|{"ev":"fib_change","t":0.25,"node":1,"next_hop":null}|}
    (Obs.Event.to_json
       (Obs.Event.Fib_change
          { time = 0.25; node = 1; next_hop = None; prefix = None }));
  Alcotest.(check string) "loop members"
    {|{"ev":"loop_detected","t":3,"members":[1,2,4],"trigger":2}|}
    (Obs.Event.to_json
       (Obs.Event.Loop_detected
          { time = 3.; members = [ 1; 2; 4 ]; trigger = 2; prefix = None }));
  (* mesh runs tag per-prefix events with a trailing "pfx" field; the
     tag must not disturb any byte before it *)
  Alcotest.(check string) "prefix tag appended"
    {|{"ev":"update_sent","t":1.5,"src":0,"dst":3,"kind":"announce","pfx":42}|}
    (Obs.Event.to_json
       (ev_sent_pfx ~prefix:42 ~time:1.5 ~src:0 ~dst:3 ~withdraw:false));
  Alcotest.(check string) "prefix tag on fib change"
    {|{"ev":"fib_change","t":0.25,"node":1,"next_hop":4,"pfx":0}|}
    (Obs.Event.to_json
       (Obs.Event.Fib_change
          { time = 0.25; node = 1; next_hop = Some 4; prefix = Some 0 }))

let test_event_accessors () =
  let e = ev_sent ~time:7.25 ~src:1 ~dst:2 ~withdraw:true in
  Alcotest.(check (float 0.)) "time" 7.25 (Obs.Event.time e);
  Alcotest.(check string) "kind" "update_sent" (Obs.Event.kind e)

let test_json_float_stability () =
  (* %.12g must round-trip typical virtual times without platform noise *)
  let e = ev_sent ~time:30.000000000001 ~src:0 ~dst:1 ~withdraw:false in
  let j1 = Obs.Event.to_json e and j2 = Obs.Event.to_json e in
  Alcotest.(check string) "byte stable" j1 j2

(* --- sinks --- *)

let test_memory_sink_order () =
  let sink, contents = Obs.Sink.memory () in
  for i = 0 to 4 do
    Obs.Sink.emit sink (ev_sent ~time:(float_of_int i) ~src:i ~dst:0 ~withdraw:false)
  done;
  Alcotest.(check (list (float 0.)))
    "emit order preserved" [ 0.; 1.; 2.; 3.; 4. ]
    (List.map Obs.Event.time (contents ()))

let test_ring_sink_keeps_last () =
  let sink, contents = Obs.Sink.ring ~capacity:3 () in
  for i = 0 to 9 do
    Obs.Sink.emit sink (ev_sent ~time:(float_of_int i) ~src:i ~dst:0 ~withdraw:false)
  done;
  Alcotest.(check (list (float 0.)))
    "last capacity events, oldest first" [ 7.; 8.; 9. ]
    (List.map Obs.Event.time (contents ()));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Sink.ring: capacity must be positive") (fun () ->
      ignore (Obs.Sink.ring ~capacity:0 ()))

let test_ring_sink_counts_drops () =
  let c = Obs.Counters.create () in
  let sink, contents = Obs.Sink.ring ~counters:c ~capacity:3 () in
  for i = 0 to 9 do
    Obs.Sink.emit sink (ev_sent ~time:(float_of_int i) ~src:i ~dst:0 ~withdraw:false)
  done;
  let s = Obs.Counters.snapshot c in
  Alcotest.(check int) "10 emits into 3 slots drop 7" 7 s.s_trace_dropped;
  Alcotest.(check int) "ring still serves the tail" 3
    (List.length (contents ()));
  (* below capacity: nothing dropped *)
  let c2 = Obs.Counters.create () in
  let sink2, _ = Obs.Sink.ring ~counters:c2 ~capacity:8 () in
  for i = 0 to 4 do
    Obs.Sink.emit sink2
      (ev_sent ~time:(float_of_int i) ~src:i ~dst:0 ~withdraw:false)
  done;
  Alcotest.(check int) "no drops below capacity" 0
    (Obs.Counters.snapshot c2).s_trace_dropped;
  (* the counter participates in snapshot merge/ordering *)
  Alcotest.(check bool) "drops respected by le" false
    (Obs.Counters.le s (Obs.Counters.snapshot c2));
  let m = Obs.Counters.merge s (Obs.Counters.snapshot c2) in
  Alcotest.(check int) "merge sums drops" 7 m.s_trace_dropped

let test_tee_sink () =
  let s1, c1 = Obs.Sink.memory () in
  let s2, c2 = Obs.Sink.memory () in
  let tee = Obs.Sink.tee s1 s2 in
  Obs.Sink.emit tee (ev_sent ~time:1. ~src:0 ~dst:1 ~withdraw:false);
  Alcotest.(check int) "both sides" 2 (List.length (c1 ()) + List.length (c2 ()))

let test_jsonl_file_digest_matches_events () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let events =
        [
          ev_sent ~time:0.5 ~src:0 ~dst:1 ~withdraw:false;
          Obs.Event.Fib_change
            { time = 1.; node = 1; next_hop = Some 0; prefix = None };
        ]
      in
      let sink = Obs.Sink.jsonl_file path in
      List.iter (Obs.Sink.emit sink) events;
      Obs.Sink.close sink;
      Alcotest.(check string) "file digest = in-memory digest"
        (Obs.Trace_digest.of_events events)
        (Obs.Trace_digest.of_file path))

(* --- binary codec --- *)

let all_constructor_events =
  [
    ev_sent ~time:1.5 ~src:0 ~dst:3 ~withdraw:false;
    ev_sent_pfx ~prefix:12109 ~time:1.5 ~src:0 ~dst:3 ~withdraw:false;
    Obs.Event.Update_recv
      { time = 2.; node = 3; from = 0; withdraw = true; prefix = None };
    Obs.Event.Update_recv
      { time = 2.; node = 3; from = 0; withdraw = true; prefix = Some 0 };
    Obs.Event.Originate { time = 0.; node = 7; prefix = None };
    Obs.Event.Originate { time = 0.; node = 7; prefix = Some 7 };
    Obs.Event.Withdrawal { time = 0.125; node = 2; prefix = None };
    Obs.Event.Fib_change
      { time = 0.25; node = 1; next_hop = None; prefix = None };
    Obs.Event.Fib_change
      { time = 0.25; node = 1; next_hop = Some 4; prefix = Some 109 };
    Obs.Event.Mrai_fire { time = 30.000000000001; node = 5; peer = 6 };
    Obs.Event.Node_busy { time = 3.5; node = 2; depth = 9 };
    Obs.Event.Link_state { time = 4.; a = 1; b = 2; up = false };
    Obs.Event.Msg_dropped { time = 5.; a = 2; b = 3; reason = Obs.Event.Loss };
    Obs.Event.Loop_detected
      { time = 6.; members = []; trigger = 0; prefix = None };
    Obs.Event.Loop_resolved
      { time = 7.; members = List.init 300 Fun.id; prefix = Some 3 };
  ]

let test_binary_roundtrip_all_constructors () =
  List.iter
    (fun e ->
      let s = Obs.Binary.encode_string e in
      let e', stop = Obs.Binary.decode s ~pos:0 in
      Alcotest.(check bool) "event round-trips" true (e' = e);
      Alcotest.(check int) "frame fully consumed" (String.length s) stop)
    all_constructor_events;
  (* a whole stream, header included *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf Obs.Binary.header;
  List.iter (Obs.Binary.encode buf) all_constructor_events;
  Alcotest.(check bool) "stream round-trips" true
    (Obs.Binary.decode_all (Buffer.contents buf) = all_constructor_events)

let test_binary_rejects_corruption () =
  let fails f = try ignore (f ()); false with Failure _ -> true in
  Alcotest.(check bool) "foreign bytes" true
    (fails (fun () -> Obs.Binary.decode_all "not a trace at all"));
  Alcotest.(check bool) "short header" true
    (fails (fun () -> Obs.Binary.decode_all "BGP"));
  (* version mismatches raise the structured exception, not Failure:
     callers (churn resume, trace decode) match on it to give the
     "re-encode or re-run" advice *)
  let version_mismatch ~found stream =
    match Obs.Binary.decode_all stream with
    | _ -> Alcotest.fail "version mismatch not rejected"
    | exception Obs.Binary.Unsupported_version { found = f; expected } ->
        Alcotest.(check int) "found version reported" found f;
        Alcotest.(check int) "expected = current" Obs.Binary.version expected
  in
  version_mismatch ~found:42 "BGPTRACE\042";
  (* a v1 stream (pre prefix-field bump) must be rejected up front *)
  version_mismatch ~found:1 "BGPTRACE\001";
  let frame = Obs.Binary.encode_string (List.hd all_constructor_events) in
  let truncated =
    Obs.Binary.header ^ String.sub frame 0 (String.length frame - 1)
  in
  Alcotest.(check bool) "truncated frame" true
    (fails (fun () -> Obs.Binary.decode_all truncated));
  (* hostile length prefixes and counts: each must fail with Failure
     through both the bulk decoder and the channel reader behind
     `trace decode`, and the reader must not allocate for a length the
     stream does not hold *)
  let varint n =
    let b = Buffer.create 10 in
    let n = ref n in
    while !n lsr 7 <> 0 do
      Buffer.add_char b (Char.chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    Buffer.add_char b (Char.chr !n);
    Buffer.contents b
  in
  (* nine bytes whose last one sets bit 62, the sign bit of an OCaml int *)
  let sign_bit_varint = String.make 8 '\x80' ^ "\x40" in
  let negative_members =
    let payload =
      "\010" ^ String.make 8 '\000' ^ sign_bit_varint ^ "\000"
    in
    varint (String.length payload) ^ payload
  in
  let reader_words body =
    let path = Filename.temp_file "obs_probe" ".bin" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc (Obs.Binary.header ^ body);
        close_out oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let r = Obs.Binary.open_reader ic in
            let before = Gc.allocated_bytes () in
            let failed =
              fails (fun () ->
                  while Obs.Binary.input r <> None do
                    ()
                  done)
            in
            let words =
              (Gc.allocated_bytes () -. before)
              /. float_of_int (Sys.word_size / 8)
            in
            (failed, words)))
  in
  List.iter
    (fun (label, body) ->
      Alcotest.(check bool) (label ^ ": decode_all") true
        (fails (fun () -> Obs.Binary.decode_all (Obs.Binary.header ^ body)));
      let failed, words = reader_words body in
      Alcotest.(check bool) (label ^ ": reader") true failed;
      Alcotest.(check bool)
        (Printf.sprintf "%s: reader allocates under 1 Mword (%.0f)" label words)
        true (words < 1e6))
    [
      ("5-byte body claiming 2^31 bytes", varint (1 lsl 31));
      ("length 2^60", varint (1 lsl 60));
      ("sign-bit length", sign_bit_varint);
      ("negative member count", negative_members);
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_binary_file_sink_roundtrip () =
  let path = Filename.temp_file "obs_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.binary_file path in
      List.iter (Obs.Sink.emit sink) all_constructor_events;
      Obs.Sink.close sink;
      (* bulk decode of the file bytes *)
      let bytes = read_file path in
      Alcotest.(check bool) "file decodes to the events" true
        (Obs.Binary.decode_all bytes = all_constructor_events);
      (* the binary digest covers frames only, not the header *)
      let frames =
        String.sub bytes
          (String.length Obs.Binary.header)
          (String.length bytes - String.length Obs.Binary.header)
      in
      Alcotest.(check string) "of_events_binary = md5 of the frame bytes"
        (Digest.to_hex (Digest.string frames))
        (Obs.Trace_digest.of_events_binary all_constructor_events);
      (* the incremental channel reader agrees with the bulk decoder *)
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let r = Obs.Binary.open_reader ic in
          let rec all acc =
            match Obs.Binary.input r with
            | Some e -> all (e :: acc)
            | None -> List.rev acc
          in
          Alcotest.(check bool) "reader yields the same events" true
            (all [] = all_constructor_events)))

(* qcheck: decode (encode e) = e over every constructor, including
   empty/long member lists and extreme (finite) float times *)
let gen_event =
  let open QCheck.Gen in
  let time =
    oneof
      [
        map (fun i -> float_of_int i /. 128.) int;
        oneofl
          [
            0.; -0.; 1e-308; 4.9e-324; 1.7976931348623157e308; -1.5e300;
            30.000000000001;
          ];
      ]
  in
  let node = oneof [ small_nat; oneofl [ 0; 1; 0x7FFFFFFF; -0x80000000 ] ] in
  let members =
    oneof [ return []; list_size (int_range 1 300) node ]
  in
  let reason =
    oneofl [ Obs.Event.Down; Obs.Event.Loss; Obs.Event.Stale_epoch ]
  in
  let b = bool in
  let prefix = oneof [ return None; map Option.some small_nat ] in
  oneof
    [
      map (fun ((time, src, dst, withdraw), prefix) ->
          Obs.Event.Update_sent { time; src; dst; withdraw; prefix })
        (pair (quad time node node b) prefix);
      map (fun ((time, node, from, withdraw), prefix) ->
          Obs.Event.Update_recv { time; node; from; withdraw; prefix })
        (pair (quad time node node b) prefix);
      map (fun (time, node, prefix) -> Obs.Event.Originate { time; node; prefix })
        (triple time node prefix);
      map (fun (time, node, prefix) ->
          Obs.Event.Withdrawal { time; node; prefix })
        (triple time node prefix);
      map (fun ((time, node, next_hop), prefix) ->
          Obs.Event.Fib_change { time; node; next_hop; prefix })
        (pair (triple time node (option node)) prefix);
      map (fun (time, node, peer) -> Obs.Event.Mrai_fire { time; node; peer })
        (triple time node node);
      map (fun (time, node, depth) -> Obs.Event.Node_busy { time; node; depth })
        (triple time node node);
      map (fun (time, a, b', up) -> Obs.Event.Link_state { time; a; b = b'; up })
        (quad time node node b);
      map (fun (time, a, b', reason) ->
          Obs.Event.Msg_dropped { time; a; b = b'; reason })
        (quad time node node reason);
      map (fun ((time, members, trigger), prefix) ->
          Obs.Event.Loop_detected { time; members; trigger; prefix })
        (pair (triple time members node) prefix);
      map (fun (time, members, prefix) ->
          Obs.Event.Loop_resolved { time; members; prefix })
        (triple time members prefix);
    ]

let arb_event =
  QCheck.make ~print:(fun e -> Obs.Event.to_json e) gen_event

let prop_binary_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary decode (encode e) = e" arb_event
    (fun e ->
      let s = Obs.Binary.encode_string e in
      let e', stop = Obs.Binary.decode s ~pos:0 in
      e' = e && stop = String.length s)

let prop_binary_stream_roundtrip =
  QCheck.Test.make ~count:50 ~name:"binary stream decode_all round-trip"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) arb_event)
    (fun events ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf Obs.Binary.header;
      List.iter (Obs.Binary.encode buf) events;
      Obs.Binary.decode_all (Buffer.contents buf) = events)

(* --- bus --- *)

let test_bus_off_is_inert () =
  Alcotest.(check bool) "off disabled" false (Obs.Bus.enabled Obs.Bus.off);
  (* emitting on the off bus must be a no-op, not a crash *)
  Obs.Bus.update_sent Obs.Bus.off ~time:0. ~src:0 ~dst:1 ~withdraw:false;
  Obs.Bus.loop_detected Obs.Bus.off ~time:0. ~members:[ 1 ] ~trigger:1

let test_bus_counters_only_allocates_no_events () =
  let c = Obs.Counters.create () in
  let obs = Obs.Bus.create ~counters:c () in
  Obs.Bus.update_sent obs ~time:0. ~src:0 ~dst:1 ~withdraw:false;
  Obs.Bus.update_recv obs ~time:0. ~node:1 ~from:0 ~withdraw:true;
  Obs.Bus.decision_run obs ~node:1;
  let s = Obs.Counters.snapshot c in
  Alcotest.(check int) "sent counted" 1 s.s_updates_sent;
  Alcotest.(check int) "withdraw recv counted" 1 s.s_withdrawals_recv;
  Alcotest.(check int) "decision counted" 1 s.s_decision_runs

let test_bus_events_and_counters_together () =
  let c = Obs.Counters.create () in
  let sink, contents = Obs.Sink.memory () in
  let obs = Obs.Bus.create ~sink ~counters:c () in
  Obs.Bus.update_sent obs ~time:1. ~src:0 ~dst:2 ~withdraw:false;
  Obs.Bus.mrai_fire obs ~time:2. ~node:0 ~peer:2;
  Alcotest.(check int) "two events" 2 (List.length (contents ()));
  let s = Obs.Counters.snapshot c in
  Alcotest.(check int) "mrai fire counted" 1 s.s_mrai_fires

(* --- counters --- *)

let test_counters_merge_and_hwm () =
  let a = Obs.Counters.create () and b = Obs.Counters.create () in
  Obs.Counters.incr_sent a ~node:0 ~withdraw:false;
  Obs.Counters.incr_sent b ~node:0 ~withdraw:true;
  Obs.Counters.observe_queue_depth a ~node:0 ~depth:3;
  Obs.Counters.observe_queue_depth b ~node:0 ~depth:7;
  let m = Obs.Counters.merge (Obs.Counters.snapshot a) (Obs.Counters.snapshot b) in
  Alcotest.(check int) "announce send summed" 1 m.s_updates_sent;
  Alcotest.(check int) "withdraw send summed" 1 m.s_withdrawals_sent;
  (match m.s_nodes with
  | [ (0, pn) ] ->
      Alcotest.(check int) "per-node sent summed" 2 pn.msgs_sent;
      Alcotest.(check int) "hwm takes max, not sum" 7 pn.queue_depth_hwm
  | _ -> Alcotest.fail "expected exactly node 0")

let test_counters_le () =
  let c = Obs.Counters.create () in
  let s0 = Obs.Counters.snapshot c in
  Obs.Counters.incr_recv c ~node:1 ~withdraw:false;
  Obs.Counters.incr_fib_change c ~node:1;
  let s1 = Obs.Counters.snapshot c in
  Alcotest.(check bool) "s0 <= s1" true (Obs.Counters.le s0 s1);
  Alcotest.(check bool) "s1 </= s0" false (Obs.Counters.le s1 s0)

(* --- profile --- *)

let test_profile_record_and_merge () =
  let p = Obs.Profile.create () and q = Obs.Profile.create () in
  Obs.Profile.record p ~tag:"link-deliver" ~wall_s:1e-5;
  Obs.Profile.record q ~tag:"link-deliver" ~wall_s:2e-5;
  Obs.Profile.record q ~tag:"mrai-fire" ~wall_s:1e-5;
  Obs.Profile.record ~minor_words:40. q ~tag:"link-deliver" ~wall_s:0.;
  Obs.Profile.merge_into ~src:q ~dst:p;
  match Obs.Profile.kinds p with
  | [ ("link-deliver", ld); ("mrai-fire", mf) ] ->
      Alcotest.(check int) "link-deliver merged" 3 ld.count;
      Alcotest.(check int) "mrai-fire carried over" 1 mf.count;
      Alcotest.(check (float 1e-9)) "wall summed" 3e-5 ld.wall_total_s;
      Alcotest.(check (float 0.)) "words summed" 40. ld.minor_words
  | ks ->
      Alcotest.fail
        (Printf.sprintf "unexpected kinds: %s"
           (String.concat "," (List.map fst ks)))

let test_profile_step_times_run () =
  let p = Obs.Profile.create () in
  Obs.Profile.step p ~tag:(Some "x") ~run:(fun () -> ());
  Obs.Profile.step p ~tag:None ~run:(fun () -> ());
  match Obs.Profile.kinds p with
  | [ ("untagged", u); ("x", x) ] ->
      Alcotest.(check int) "tagged counted" 1 x.count;
      Alcotest.(check int) "untagged counted" 1 u.count
  | _ -> Alcotest.fail "expected untagged + x"

(* The profiler hook lives in [Bgp.Network.create]: a profiled mesh run
   executes the same events as an unprofiled one, and every executed
   event lands in exactly one tag. *)
let test_profile_mesh_hook () =
  let graph = Topo.Generators.clique 5 in
  let run ?profile () =
    let sink, contents = Obs.Sink.memory () in
    let obs = Obs.Bus.create ~sink () in
    let o = Bgp.Mesh_sim.run ~graph ~victim:0 ~seed:1 ~obs ?profile () in
    (o.events_executed, Obs.Trace_digest.of_events (contents ()))
  in
  let p = Obs.Profile.create () in
  let plain_events, plain_digest = run () in
  let prof_events, prof_digest = run ~profile:p () in
  Alcotest.(check int) "same events" plain_events prof_events;
  Alcotest.(check string) "same trace digest" plain_digest prof_digest;
  let kinds = Obs.Profile.kinds p in
  Alcotest.(check int) "tag counts sum to events" prof_events
    (List.fold_left
       (fun acc (_, (k : Obs.Profile.kind_stats)) -> acc + k.count)
       0 kinds);
  match List.assoc_opt "proc-complete" kinds with
  | Some k ->
      Alcotest.(check bool) "proc-complete allocates" true (k.minor_words > 0.)
  | None -> Alcotest.fail "no proc-complete tag"

(* --- trace properties on real runs --- *)

(* chaos-free scenarios: no message duplication/loss, so the
   sent/recv correspondence must hold exactly *)
let scenarios =
  [
    ("clique-4 tdown", Topo.Generators.clique 4, Bgp.Routing_sim.Tdown);
    ("clique-5 tdown", Topo.Generators.clique 5, Bgp.Routing_sim.Tdown);
    ( "b-clique-4 tlong",
      Topo.Generators.b_clique 4,
      Bgp.Routing_sim.Tlong { a = 0; b = 4 } );
    ("chain-5 tdown", Topo.Generators.chain 5, Bgp.Routing_sim.Tdown);
    ( "ring-6 tshort",
      Topo.Generators.ring 6,
      Bgp.Routing_sim.Tshort { a = 0; b = 1; down_for = 3. } );
  ]

let traced_run ~graph ~event ~seed =
  let sink, contents = Obs.Sink.memory () in
  let c = Obs.Counters.create () in
  let obs = Obs.Bus.create ~sink ~counters:c () in
  let outcome = Bgp.Routing_sim.run ~graph ~origin:0 ~event ~seed ~obs () in
  (outcome, contents (), c)

let test_recv_matches_prior_sent () =
  List.iter
    (fun (name, graph, event) ->
      List.iter
        (fun seed ->
          let _, events, _ = traced_run ~graph ~event ~seed in
          (* multiset of in-flight sends keyed (src, dst, withdraw) *)
          let inflight = Hashtbl.create 64 in
          let count k = Option.value ~default:0 (Hashtbl.find_opt inflight k) in
          List.iter
            (fun e ->
              match e with
              | Obs.Event.Update_sent { src; dst; withdraw; _ } ->
                  let k = (src, dst, withdraw) in
                  Hashtbl.replace inflight k (count k + 1)
              | Obs.Event.Update_recv { node; from; withdraw; _ } ->
                  let k = (from, node, withdraw) in
                  if count k <= 0 then
                    Alcotest.fail
                      (Printf.sprintf
                         "%s seed %d: recv %d<-%d (withdraw=%b) without a \
                          prior unconsumed send"
                         name seed node from withdraw)
                  else Hashtbl.replace inflight k (count k - 1)
              | _ -> ())
            events)
        [ 1; 2 ])
    scenarios

let test_trace_times_nondecreasing () =
  List.iter
    (fun (name, graph, event) ->
      let _, events, _ = traced_run ~graph ~event ~seed:1 in
      ignore
        (List.fold_left
           (fun last e ->
             let t = Obs.Event.time e in
             if t < last then
               Alcotest.fail
                 (Printf.sprintf "%s: time went backwards (%g after %g)" name t
                    last);
             t)
           neg_infinity events))
    scenarios

let test_fib_change_events_equal_history () =
  List.iter
    (fun (name, graph, event) ->
      let outcome, events, c = traced_run ~graph ~event ~seed:1 in
      let fib = Netcore.Trace.fib outcome.trace in
      let emitted =
        List.length
          (List.filter
             (function Obs.Event.Fib_change _ -> true | _ -> false)
             events)
      in
      Alcotest.(check int)
        (name ^ ": fib events = history changes")
        (Netcore.Fib_history.change_count fib)
        emitted;
      let s = Obs.Counters.snapshot c in
      Alcotest.(check int)
        (name ^ ": fib counter agrees")
        emitted s.s_fib_changes)
    scenarios

let test_counters_monotone_during_run () =
  let graph = Topo.Generators.clique 5 in
  let c = Obs.Counters.create () in
  let snaps = ref [] in
  let k = ref 0 in
  (* snapshot the registry from inside the event stream itself: every
     8th event, i.e. at strictly increasing virtual times *)
  let sink =
    Obs.Sink.fn (fun _ ->
        incr k;
        if !k mod 8 = 0 then snaps := Obs.Counters.snapshot c :: !snaps)
  in
  let obs = Obs.Bus.create ~sink ~counters:c () in
  let (_ : Bgp.Routing_sim.outcome) =
    Bgp.Routing_sim.run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:1
      ~obs ()
  in
  let snaps = List.rev (Obs.Counters.snapshot c :: !snaps) in
  Alcotest.(check bool) "collected several snapshots" true
    (List.length snaps > 3);
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "snapshots monotone" true (Obs.Counters.le a b);
        pairwise rest
    | _ -> ()
  in
  pairwise snaps

let test_counters_match_outcome () =
  let graph = Topo.Generators.clique 5 in
  let outcome, _, c =
    traced_run ~graph ~event:Bgp.Routing_sim.Tdown ~seed:1
  in
  let s = Obs.Counters.snapshot c in
  Alcotest.(check int) "engine events credited" outcome.events_executed
    s.s_events_executed;
  (* counters cover warm-up too, so they dominate the post-failure
     outcome counts *)
  Alcotest.(check bool) "sent >= updates after fail" true
    (s.s_updates_sent >= outcome.updates_after_fail);
  Alcotest.(check bool) "withdrawals >= after fail" true
    (s.s_withdrawals_sent >= outcome.withdrawals_after_fail)

let test_digest_deterministic_across_runs () =
  let graph = Topo.Generators.clique 5 in
  let digest () =
    let _, events, _ = traced_run ~graph ~event:Bgp.Routing_sim.Tdown ~seed:1 in
    Obs.Trace_digest.of_events events
  in
  Alcotest.(check string) "same seed, same digest" (digest ()) (digest ());
  let other =
    let _, events, _ = traced_run ~graph ~event:Bgp.Routing_sim.Tdown ~seed:2 in
    Obs.Trace_digest.of_events events
  in
  Alcotest.(check bool) "different seed, different digest" true
    (other <> digest ())

(* qcheck: the sent/recv and fib properties over random small cliques *)
let prop_random_scenarios =
  QCheck.Test.make ~count:15 ~name:"random clique traces well-formed"
    QCheck.(pair (int_range 3 7) (int_range 1 1000))
    (fun (n, seed) ->
      let graph = Topo.Generators.clique n in
      let outcome, events, _ =
        traced_run ~graph ~event:Bgp.Routing_sim.Tdown ~seed
      in
      let inflight = Hashtbl.create 64 in
      let count k = Option.value ~default:0 (Hashtbl.find_opt inflight k) in
      let ok =
        List.for_all
          (fun e ->
            match e with
            | Obs.Event.Update_sent { src; dst; withdraw; _ } ->
                let k = (src, dst, withdraw) in
                Hashtbl.replace inflight k (count k + 1);
                true
            | Obs.Event.Update_recv { node; from; withdraw; _ } ->
                let k = (from, node, withdraw) in
                if count k <= 0 then false
                else (
                  Hashtbl.replace inflight k (count k - 1);
                  true)
            | _ -> true)
          events
      in
      let fib_events =
        List.length
          (List.filter
             (function Obs.Event.Fib_change _ -> true | _ -> false)
             events)
      in
      ok
      && fib_events
         = Netcore.Fib_history.change_count (Netcore.Trace.fib outcome.trace))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "events",
        [
          tc "json shapes" test_event_json_shapes;
          tc "accessors" test_event_accessors;
          tc "float stability" test_json_float_stability;
        ] );
      ( "sinks",
        [
          tc "memory order" test_memory_sink_order;
          tc "ring keeps last" test_ring_sink_keeps_last;
          tc "ring counts drops" test_ring_sink_counts_drops;
          tc "tee duplicates" test_tee_sink;
          tc "jsonl file digest" test_jsonl_file_digest_matches_events;
        ] );
      ( "binary",
        [
          tc "round-trip all constructors" test_binary_roundtrip_all_constructors;
          tc "rejects corruption" test_binary_rejects_corruption;
          tc "file sink round-trip" test_binary_file_sink_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_stream_roundtrip;
        ] );
      ( "bus",
        [
          tc "off is inert" test_bus_off_is_inert;
          tc "counters-only" test_bus_counters_only_allocates_no_events;
          tc "events + counters" test_bus_events_and_counters_together;
        ] );
      ( "counters",
        [
          tc "merge and hwm" test_counters_merge_and_hwm;
          tc "le" test_counters_le;
        ] );
      ( "profile",
        [
          tc "record and merge" test_profile_record_and_merge;
          tc "step times run" test_profile_step_times_run;
          tc "mesh hook: same run, every event tagged" test_profile_mesh_hook;
        ] );
      ( "trace-properties",
        [
          tc "recv matches prior sent" test_recv_matches_prior_sent;
          tc "times nondecreasing" test_trace_times_nondecreasing;
          tc "fib events = history changes" test_fib_change_events_equal_history;
          tc "counters monotone mid-run" test_counters_monotone_during_run;
          tc "counters match outcome" test_counters_match_outcome;
          tc "digest deterministic" test_digest_deterministic_across_runs;
          QCheck_alcotest.to_alcotest prop_random_scenarios;
        ] );
    ]

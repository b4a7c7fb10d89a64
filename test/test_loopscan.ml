(* Tests for the forwarding-loop tracker: loop birth/death tracking
   over hand-built FIB histories, canonical representation, concurrent
   loops and aggregates, and a QCheck property against the brute-force
   oracle in loop_oracle.ml. *)

let fib_with ~n changes =
  let fib = Netcore.Fib_history.create ~n in
  List.iter
    (fun (time, node, next_hop) ->
      Netcore.Fib_history.record fib ~time ~node ~next_hop)
    changes;
  fib

let scan ?(from = 10.) ~n changes =
  Loopscan.Scanner.scan ~fib:(fib_with ~n changes) ~origin:0 ~from ()

(* --- basic lifecycle --- *)

let test_no_loops_in_stable_run () =
  let report =
    scan ~n:3 [ (0., 1, Some 0); (0., 2, Some 1); (11., 2, Some 0) ]
  in
  Alcotest.(check int) "no loops" 0 (List.length report.loops);
  Alcotest.(check bool) "no birth" true (report.first_loop_birth = None);
  Alcotest.(check int) "no concurrency" 0 report.max_concurrent

let test_two_node_loop_lifecycle () =
  (* warm-up: 1 -> 0 and 2 -> 1; at t=10, node 1 repoints to 2 (loop
     1 <-> 2); at t=15, node 2 repoints to 0 (loop dies) *)
  let report =
    scan ~n:3
      [ (0., 1, Some 0); (0., 2, Some 1); (10., 1, Some 2); (15., 2, Some 0) ]
  in
  (match report.loops with
  | [ l ] ->
      Alcotest.(check (list int)) "members" [ 1; 2 ] l.members;
      Alcotest.(check (float 0.)) "birth" 10. l.birth;
      Alcotest.(check bool) "death" true (l.death = Some 15.);
      Alcotest.(check int) "size" 2 (Loopscan.Scanner.size l);
      Alcotest.(check (float 0.)) "duration" 5.
        (Loopscan.Scanner.duration l ~until:100.)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls));
  Alcotest.(check bool) "first birth" true (report.first_loop_birth = Some 10.);
  Alcotest.(check bool) "last death" true (report.last_loop_death = Some 15.);
  Alcotest.(check int) "one at a time" 1 report.max_concurrent

let test_loop_survives_scan () =
  let report = scan ~n:3 [ (0., 2, Some 1); (0., 1, Some 0); (12., 1, Some 2) ] in
  (match report.loops with
  | [ l ] ->
      Alcotest.(check bool) "alive" true (l.death = None);
      Alcotest.(check (float 0.)) "duration uses until" 8.
        (Loopscan.Scanner.duration l ~until:20.)
  | _ -> Alcotest.fail "expected one surviving loop");
  Alcotest.(check bool) "no last death with survivor" true
    (report.last_loop_death = None)

let test_three_node_loop () =
  (* 1 -> 2 -> 3 -> 1 formed by 3's change at t=11 *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 2);
        (0., 2, Some 3);
        (0., 3, Some 0);
        (11., 3, Some 1);
      ]
  in
  match report.loops with
  | [ l ] ->
      Alcotest.(check (list int)) "forwarding order from min" [ 1; 2; 3 ]
        l.members;
      Alcotest.(check int) "size" 3 (Loopscan.Scanner.size l)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_canonical_rotation () =
  (* same cycle, formed by a different node's change: members list must
     still start at the smallest node *)
  let report =
    scan ~n:4
      [
        (0., 2, Some 3);
        (0., 3, Some 1);
        (0., 1, Some 0);
        (11., 1, Some 2);
      ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check (list int)) "canonical" [ 1; 2; 3 ] l.members
  | _ -> Alcotest.fail "expected one loop"

let test_concurrent_disjoint_loops () =
  (* two disjoint 2-node loops alive simultaneously *)
  let report =
    scan ~n:5
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 0);
        (0., 4, Some 3);
        (10., 1, Some 2);
        (11., 3, Some 4);
        (14., 1, Some 0);
        (16., 3, Some 0);
      ]
  in
  Alcotest.(check int) "two loops" 2 (List.length report.loops);
  Alcotest.(check int) "concurrent" 2 report.max_concurrent;
  Alcotest.(check bool) "last death" true (report.last_loop_death = Some 16.)

let test_sequential_loops_on_same_nodes () =
  (* the same pair loops, resolves, then loops again: two distinct loop
     records — the paper's "resolution of one loop could result in
     another (but different) loop" *)
  let report =
    scan ~n:3
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (10., 1, Some 2);
        (12., 1, Some 0);
        (14., 1, Some 2);
        (15., 1, Some 0);
      ]
  in
  Alcotest.(check int) "two episodes" 2 (List.length report.loops);
  Alcotest.(check int) "never concurrent" 1 report.max_concurrent;
  match report.loops with
  | [ a; b ] ->
      Alcotest.(check (list int)) "same members" a.members b.members;
      Alcotest.(check bool) "ordered by birth" true (a.birth < b.birth)
  | _ -> Alcotest.fail "expected two loops"

let test_tail_into_loop_not_a_member () =
  (* 3 -> 1 -> 2 -> 1: node 3 is on a tail into the loop, not in it *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
      ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check (list int)) "tail excluded" [ 1; 2 ] l.members
  | _ -> Alcotest.fail "expected one loop"

let test_rejects_looped_start () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (scan ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ]);
       false
     with Invalid_argument _ -> true)

let test_change_killing_and_reforming_at_once () =
  (* node 1 changes its next hop from one loop-mate to another at the
     same instant: old loop dies at t, new loop (1,3) born at t *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
        (13., 1, Some 3);
      ]
  in
  Alcotest.(check int) "two loops" 2 (List.length report.loops);
  match report.loops with
  | [ a; b ] ->
      Alcotest.(check (list int)) "first" [ 1; 2 ] a.members;
      Alcotest.(check bool) "first dies at 13" true (a.death = Some 13.);
      Alcotest.(check (list int)) "second" [ 1; 3 ] b.members;
      Alcotest.(check (float 0.)) "second born at 13" 13. b.birth
  | _ -> Alcotest.fail "expected two loops"

(* Node 1 repoints 2 -> 3 -> 2 at one instant: the loop [1;2] dies and
   re-forms at t = 10, so two loops tie on (birth, members).  The one
   that died is listed first, whether the report comes from [scan] or
   from a tracker fed change by change. *)
let test_tie_finished_before_live () =
  let changes = [ (10., 1, Some 2); (10., 1, Some 3); (10., 1, Some 2) ] in
  let want =
    [ "loop [1 -> 2] born 10 died 10"; "loop [1 -> 2] born 10 (alive)" ]
  in
  let render (r : Loopscan.Scanner.report) =
    List.map (Format.asprintf "%a" Loopscan.Scanner.pp_loop) r.loops
  in
  let start = [ (0., 1, Some 0); (0., 2, Some 1); (0., 3, Some 0) ] in
  Alcotest.(check (list string)) "scan" want
    (render (scan ~n:4 (start @ changes)));
  let tracker =
    Loopscan.Scanner.create ~record:true ~origin:0
      ~initial:[| None; Some 0; Some 1; Some 0 |]
      ()
  in
  List.iter
    (fun (time, node, next_hop) ->
      Loopscan.Scanner.observe tracker ~time ~node ~next_hop)
    changes;
  Alcotest.(check (list string)) "tracker fed change by change" want
    (render (Loopscan.Scanner.report tracker))

(* --- aggregates --- *)

let test_aggregate_empty () =
  let report = scan ~n:2 [ (0., 1, Some 0) ] in
  let a = Loopscan.Scanner.aggregate report ~until:100. in
  Alcotest.(check int) "count" 0 a.count;
  Alcotest.(check (float 0.)) "total" 0. a.total_loop_seconds

let test_aggregate_math () =
  let report =
    scan ~n:5
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 0);
        (0., 4, Some 3);
        (10., 1, Some 2);
        (* 2-node loop alive 10..14 = 4s *)
        (11., 3, Some 4);
        (* 2-node loop alive 11..17 = 6s *)
        (14., 1, Some 0);
        (17., 3, Some 0);
      ]
  in
  let a = Loopscan.Scanner.aggregate report ~until:100. in
  Alcotest.(check int) "count" 2 a.count;
  Alcotest.(check (float 1e-9)) "mean size" 2. a.mean_size;
  Alcotest.(check int) "max size" 2 a.max_size;
  Alcotest.(check (float 1e-9)) "mean duration" 5. a.mean_duration;
  Alcotest.(check (float 1e-9)) "max duration" 6. a.max_duration;
  Alcotest.(check (float 1e-9)) "total" 10. a.total_loop_seconds

(* --- trigger attribution and cause classification --- *)

let test_trigger_node_recorded () =
  let report =
    scan ~n:3
      [ (0., 1, Some 0); (0., 2, Some 1); (10., 1, Some 2) ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check int) "trigger is the changing node" 1 l.trigger
  | _ -> Alcotest.fail "expected one loop"

let test_causes_classification () =
  let fib =
    fib_with ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
        (* withdrawal-triggered: 1 processed a withdrawal at 10 *)
        (12., 1, Some 0);
        (14., 1, Some 3);
        (* announcement-triggered at 14 *)
        (16., 1, Some 0);
        (18., 1, Some 3);
        (* no message at 18: session-triggered *)
      ]
  in
  let recv ~time ~from ~withdraw =
    Obs.Event.Update_recv { time; node = 1; from; withdraw; prefix = None }
  in
  let events =
    [
      recv ~time:10. ~from:0 ~withdraw:true;
      recv ~time:14. ~from:2 ~withdraw:false;
    ]
  in
  let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:5. () in
  let classified = Loopscan.Causes.classify ~events report in
  let causes = List.map snd classified in
  Alcotest.(check (list string))
    "causes in birth order"
    [ "withdrawal"; "announcement"; "session-event" ]
    (List.map Loopscan.Causes.cause_name causes);
  let b = Loopscan.Causes.breakdown classified in
  Alcotest.(check int) "withdrawals" 1 b.withdrawal_triggered;
  Alcotest.(check int) "announcements" 1 b.announcement_triggered;
  Alcotest.(check int) "sessions" 1 b.session_triggered

let test_causes_on_real_run () =
  (* T_long at the paper's Figure 1: the 5<->6 loop forms when node 5
     (or 6) falls back after processing node 4's withdrawal *)
  let graph =
    Topo.Graph.create ~n:7
      ~edges:[ (0, 4); (4, 5); (4, 6); (5, 6); (6, 3); (3, 2); (2, 1); (1, 0) ]
  in
  let sink, events = Obs.Sink.memory () in
  let o =
    Bgp.Routing_sim.run ~obs:(Obs.Bus.create ~sink ()) ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 4 })
      ~seed:1 ()
  in
  let report =
    Loopscan.Scanner.scan ~fib:(Netcore.Trace.fib o.trace) ~origin:0
      ~from:o.t_fail ()
  in
  let classified = Loopscan.Causes.classify ~events:(events ()) report in
  let b = Loopscan.Causes.breakdown classified in
  Alcotest.(check bool) "loops were found" true (report.loops <> []);
  Alcotest.(check int) "every loop has a message trigger"
    (List.length report.loops)
    (b.withdrawal_triggered + b.announcement_triggered)

(* --- property: scanner agrees with packet fates --- *)

let prop_scanner_consistent_with_forwarder =
  (* On random FIB evolutions over small graphs: whenever the scanner
     says no loop is alive at time t, a packet walk started then from
     any node must terminate (delivered or unreachable, not TTL
     exhaustion with a huge TTL). *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 25)
          (triple (float_range 10. 50.) (int_range 1 4)
             (opt (int_range 0 4))))
  in
  QCheck.Test.make ~name:"no live loop => every walk terminates" ~count:100 gen
    (fun raw_changes ->
      let changes =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) raw_changes
        |> List.filter (fun (_, node, nh) -> nh <> Some node)
      in
      let fib = fib_with ~n:5 changes in
      let plane = Traffic.Forwarder.compile fib in
      let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:0. () in
      let alive_at t =
        List.exists
          (fun (l : Loopscan.Scanner.loop) ->
            l.birth <= t && match l.death with None -> true | Some d -> d > t)
          report.loops
      in
      List.for_all
        (fun t ->
          alive_at t
          || List.for_all
               (fun src ->
                 match
                   Traffic.Forwarder.walk plane ~origin:0 ~link_delay:1e-9
                     ~ttl:1000 ~src ~send_time:t
                 with
                 | Traffic.Forwarder.Ttl_exhausted _ -> false
                 | Traffic.Forwarder.Delivered _
                 | Traffic.Forwarder.Unreachable _ ->
                     true)
               [ 1; 2; 3; 4 ])
        [ 60.; 70. ])

(* --- property: the tracker against the brute-force oracle --- *)

(* n nodes, origin 0.  At t = 0 every other node points to a lower
   node or has no route, so the start is loop-free; the changes fall on
   three instants, so a loop can die and re-form at one instant. *)
let gen_history =
  QCheck.Gen.(
    int_range 3 8 >>= fun n ->
    let start =
      flatten_l
        (List.init (n - 1) (fun i ->
             let v = i + 1 in
             opt (int_range 0 (v - 1)) >|= fun nh -> (0., v, nh)))
    in
    let change =
      triple (oneofl [ 1.; 2.; 3. ]) (int_range 1 (n - 1))
        (opt (int_range 0 (n - 1)))
    in
    triple (return n) start (list_size (int_range 0 30) change)
    >|= fun (n, start, changes) ->
    let changes =
      List.filter (fun (_, v, nh) -> nh <> Some v) changes
      |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
    in
    (n, start @ changes))

let print_history (n, changes) =
  Printf.sprintf "n=%d %s" n
    (String.concat " "
       (List.map
          (fun (t, v, nh) ->
            Printf.sprintf "(%g,%d,%s)" t v
              (match nh with None -> "-" | Some u -> string_of_int u))
          changes))

let prop_tracker_matches_oracle =
  QCheck.Test.make ~name:"tracker = brute-force oracle" ~count:500
    (QCheck.make gen_history ~print:print_history)
    (fun (n, changes) ->
      let fib = fib_with ~n changes in
      let from = 1. and until = 10. in
      let want = Loop_oracle.scan ~fib ~origin:0 ~from in
      let got = Loopscan.Scanner.scan ~fib ~origin:0 ~from () in
      let reprs (r : Loopscan.Scanner.report) =
        List.map Loop_oracle.loop_repr r.loops
      in
      if reprs got <> reprs want then
        QCheck.Test.fail_reportf "scan:@.%s@.oracle:@.%s"
          (String.concat "\n" (reprs got))
          (String.concat "\n" (reprs want));
      (* a bounded-memory tracker fed change by change *)
      let tracker =
        Loopscan.Scanner.create ~origin:0
          ~initial:(Netcore.Fib_history.snapshot fib ~before:from)
          ()
      in
      List.iter
        (fun (c : Netcore.Fib_history.change) ->
          Loopscan.Scanner.observe tracker ~time:c.time ~node:c.node
            ~next_hop:c.next_hop)
        (Netcore.Fib_history.changes_from fib ~from);
      let t = Loopscan.Scanner.totals tracker ~until in
      let count p = List.length (List.filter p got.loops) in
      let agg = Loopscan.Scanner.aggregate got ~until in
      got.max_concurrent = want.max_concurrent
      && got.first_loop_birth = want.first_loop_birth
      && got.last_loop_death = want.last_loop_death
      && t.loops_started = List.length got.loops
      && t.loops_resolved
         = count (fun (l : Loopscan.Scanner.loop) -> l.death <> None)
      && t.live_now = count (fun (l : Loopscan.Scanner.loop) -> l.death = None)
      && Float.abs (t.total_loop_seconds -. agg.total_loop_seconds) <= 1e-9)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "loopscan"
    [
      ( "lifecycle",
        [
          tc "stable run has no loops" test_no_loops_in_stable_run;
          tc "two-node loop lifecycle" test_two_node_loop_lifecycle;
          tc "loop survives the scan" test_loop_survives_scan;
          tc "three-node loop" test_three_node_loop;
          tc "canonical rotation" test_canonical_rotation;
          tc "concurrent disjoint loops" test_concurrent_disjoint_loops;
          tc "sequential loops on same nodes"
            test_sequential_loops_on_same_nodes;
          tc "tails are not members" test_tail_into_loop_not_a_member;
          tc "rejects looped starting state" test_rejects_looped_start;
          tc "kill and re-form at one instant"
            test_change_killing_and_reforming_at_once;
          tc "tie at one instant: finished loop first"
            test_tie_finished_before_live;
        ] );
      ( "aggregate",
        [
          tc "empty" test_aggregate_empty;
          tc "arithmetic" test_aggregate_math;
        ] );
      ( "causes",
        [
          tc "trigger node recorded" test_trigger_node_recorded;
          tc "classification from process log" test_causes_classification;
          tc "figure-1 run classifies fully" test_causes_on_real_run;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_scanner_consistent_with_forwarder;
          QCheck_alcotest.to_alcotest prop_tracker_matches_oracle;
        ] );
    ]

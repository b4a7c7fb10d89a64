(* Tests for metric assembly and averaging. *)

let small_run () =
  Bgpsim.Experiment.run
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 5)) with
      mrai = 5.;
    }

let test_make_consistency () =
  let r = small_run () in
  let m = r.metrics in
  Alcotest.(check bool) "converged" true m.converged;
  Alcotest.(check (float 1e-9)) "convergence time"
    (Bgp.Routing_sim.convergence_time r.outcome)
    m.convergence_time;
  Alcotest.(check int) "exhaustions" r.replay.exhausted m.ttl_exhaustions;
  Alcotest.(check int) "denominator" r.replay.sent_for_ratio m.packets_sent;
  Alcotest.(check (float 1e-9)) "ratio"
    (Traffic.Replay.looping_ratio r.replay)
    m.looping_ratio;
  Alcotest.(check int) "loop count" (List.length r.loops.loops) m.loop_count;
  Alcotest.(check bool) "ratio within [0,1]" true
    (m.looping_ratio >= 0. && m.looping_ratio <= 1.)

let test_packet_conservation () =
  let r = small_run () in
  Alcotest.(check int) "fates partition the packets" r.replay.sent
    (r.replay.delivered + r.replay.unreachable + r.replay.exhausted)

let test_zero_is_mean_identity_shape () =
  let z = Metrics.Run_metrics.zero in
  Alcotest.(check int) "exh" 0 z.ttl_exhaustions;
  Alcotest.(check (float 0.)) "conv" 0. z.convergence_time;
  Alcotest.(check bool) "converged" true z.converged

let test_mean_arithmetic () =
  let a =
    {
      Metrics.Run_metrics.zero with
      convergence_time = 10.;
      ttl_exhaustions = 100;
      looping_ratio = 0.5;
    }
  in
  let b =
    {
      Metrics.Run_metrics.zero with
      convergence_time = 20.;
      ttl_exhaustions = 301;
      looping_ratio = 0.7;
    }
  in
  let m = Metrics.Run_metrics.mean [ a; b ] in
  Alcotest.(check (float 1e-9)) "conv" 15. m.convergence_time;
  Alcotest.(check int) "exh rounds to nearest" 201 m.ttl_exhaustions;
  Alcotest.(check (float 1e-9)) "ratio" 0.6 m.looping_ratio

let test_mean_converged_conjunction () =
  let bad = { Metrics.Run_metrics.zero with converged = false } in
  let m = Metrics.Run_metrics.mean [ Metrics.Run_metrics.zero; bad ] in
  Alcotest.(check bool) "any divergence taints the mean" false m.converged

let test_mean_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Run_metrics.mean: empty list")
    (fun () -> ignore (Metrics.Run_metrics.mean []))

let test_mean_singleton_identity () =
  let r = (small_run ()).metrics in
  let m = Metrics.Run_metrics.mean [ r ] in
  Alcotest.(check (float 1e-9)) "conv" r.convergence_time m.convergence_time;
  Alcotest.(check int) "exh" r.ttl_exhaustions m.ttl_exhaustions

let test_row_rendering () =
  let r = (small_run ()).metrics in
  let row = Metrics.Run_metrics.to_row r in
  let cells = String.split_on_char '\t' row in
  let headers = String.split_on_char '\t' Metrics.Run_metrics.header in
  Alcotest.(check int) "row matches header" (List.length headers)
    (List.length cells)

let test_pp_mentions_convergence () =
  let r = (small_run ()).metrics in
  let text = Format.asprintf "%a" Metrics.Run_metrics.pp r in
  Alcotest.(check bool) "mentions convergence" true
    (String.length text > 0
    &&
    let contains ~needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
      scan 0
    in
    contains ~needle:"convergence time" text
    && contains ~needle:"looping ratio" text)

(* --- Convergence analysis --- *)

let fib_with ~n changes =
  let fib = Netcore.Fib_history.create ~n in
  List.iter
    (fun (time, node, next_hop) ->
      Netcore.Fib_history.record fib ~time ~node ~next_hop)
    changes;
  fib

let test_convergence_per_node () =
  let fib =
    fib_with ~n:4
      [ (1., 1, Some 0); (10., 1, None); (12., 2, Some 1); (14., 2, None) ]
  in
  let c = Metrics.Convergence.analyze ~fib ~from:10. in
  Alcotest.(check int) "affected" 2 c.affected_nodes;
  Alcotest.(check int) "changes" 3 c.total_changes;
  (* node 1 settles at 10 (0s after the event), node 2 at 14 (4s) *)
  Alcotest.(check (float 1e-9)) "mean settle" 2. c.mean_settle;
  Alcotest.(check (float 1e-9)) "max settle" 4. c.max_settle;
  Alcotest.(check bool) "node 3 untouched" true
    (List.assoc 3 c.per_node = None);
  Alcotest.(check bool) "node 2 settle time" true
    (List.assoc 2 c.per_node = Some 14.)

let test_convergence_no_changes () =
  let fib = fib_with ~n:2 [ (1., 1, Some 0) ] in
  let c = Metrics.Convergence.analyze ~fib ~from:5. in
  Alcotest.(check int) "nothing affected" 0 c.affected_nodes;
  Alcotest.(check (float 0.)) "zero settle" 0. c.mean_settle

let test_churn_timeline () =
  let fib =
    fib_with ~n:4
      [ (10., 1, Some 0); (10.5, 2, Some 1); (13.2, 1, None); (25., 3, Some 0) ]
  in
  let bins = Metrics.Convergence.churn_timeline ~fib ~from:10. ~bucket:5. in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bins" [ (10., 3); (25., 1) ] bins;
  Alcotest.(check bool) "rejects bad bucket" true
    (try
       ignore (Metrics.Convergence.churn_timeline ~fib ~from:0. ~bucket:0.);
       false
     with Invalid_argument _ -> true)

(* --- Export --- *)

let lines s = String.split_on_char '\n' (String.trim s)

let test_export_fib_csv () =
  let fib = fib_with ~n:3 [ (1., 1, Some 0); (2., 2, Some 1); (3., 2, None) ] in
  (match lines (Metrics.Export.fib_changes_csv fib ~from:0.) with
  | [ header; row1; _row2; _row3 ] ->
      Alcotest.(check string) "header" "time,node,next_hop" header;
      Alcotest.(check string) "row" "1.000000,1,0" row1
  | l -> Alcotest.failf "expected 4 lines, got %d" (List.length l));
  (* None renders as the empty field *)
  match lines (Metrics.Export.fib_changes_csv fib ~from:2.5) with
  | [ _; row ] -> Alcotest.(check string) "empty next hop" "3.000000,2," row
  | _ -> Alcotest.fail "expected one change"

let test_export_sends_csv () =
  let events =
    [
      Obs.Event.Update_sent
        { time = 1.; src = 0; dst = 1; withdraw = true; prefix = None };
    ]
  in
  match lines (Metrics.Export.sends_csv events ~from:0.) with
  | [ header; row ] ->
      Alcotest.(check string) "header" "time,src,dst,kind" header;
      Alcotest.(check string) "row" "1.000000,0,1,withdraw" row
  | _ -> Alcotest.fail "expected two lines"

let test_export_loops_csv () =
  let fib =
    fib_with ~n:3
      [ (0., 1, Some 0); (0., 2, Some 1); (10., 1, Some 2); (15., 2, Some 0) ]
  in
  let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:5. () in
  match lines (Metrics.Export.loops_csv report ~until:20.) with
  | [ header; row ] ->
      Alcotest.(check string) "header"
        "birth,death,duration,size,trigger,members" header;
      Alcotest.(check string) "row" "10.000000,15.000000,5.000000,2,1,1;2" row
  | l -> Alcotest.failf "expected 2 lines, got %d" (List.length l)

(* The three CSVs [bgpsim trace -o] writes, pinned by md5 on two paper
   runs at seed 1: FIB changes and messages from the failure on, loops
   until the end of the replay tail. *)
let test_export_run_csvs_pinned () =
  let check name spec ~fib_changes ~sends ~loops =
    let sink, events = Obs.Sink.memory () in
    let run = Bgpsim.Experiment.run ~obs:(Obs.Bus.create ~sink ()) spec in
    let from = run.outcome.t_fail in
    let md5 label expected text =
      Alcotest.(check string)
        (name ^ " " ^ label) expected
        (Digest.to_hex (Digest.string text))
    in
    md5 "fib_changes.csv" fib_changes
      (Metrics.Export.fib_changes_csv (Netcore.Trace.fib run.outcome.trace)
         ~from);
    md5 "messages.csv" sends (Metrics.Export.sends_csv (events ()) ~from);
    md5 "loops.csv" loops
      (Metrics.Export.loops_csv run.loops
         ~until:(run.outcome.convergence_end +. spec.replay_tail))
  in
  check "clique-8 T_down"
    (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 8))
    ~fib_changes:"b8d7f809f12b110cc7be93b72b00e4a5"
    ~sends:"b2b01649ebebf4beb69bc3fcf9436fd4"
    ~loops:"b61834337819e19f089edab77be010ba";
  check "b-clique-6 T_long"
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.B_clique 6)) with
      event = Tlong;
    }
    ~fib_changes:"b4423145f60b8471c10d0cb553352388"
    ~sends:"e0565d0fff04982b54863781cd4c2808"
    ~loops:"24ec22bec96a15f354fd5c032f4f69c1"

let test_export_series_csv () =
  let m = { Metrics.Run_metrics.zero with convergence_time = 2.5 } in
  match lines (Metrics.Export.series_csv ~x_label:"mrai" [ (30., m) ]) with
  | [ header; row ] ->
      Alcotest.(check bool) "header starts with label" true
        (String.length header > 4 && String.sub header 0 4 = "mrai");
      Alcotest.(check bool) "row starts with x" true
        (String.length row > 3 && String.sub row 0 3 = "30,")
  | _ -> Alcotest.fail "expected two lines"

(* --- Timeline --- *)

let test_sparkline_shapes () =
  Alcotest.(check string) "empty" "" (Metrics.Timeline.sparkline [||]);
  let flat = Metrics.Timeline.sparkline ~width:4 [| 0.; 0.; 0.; 0. |] in
  Alcotest.(check string) "all zero" "    " flat;
  let ramp = Metrics.Timeline.sparkline ~width:4 [| 0.; 1.; 2.; 4. |] in
  Alcotest.(check int) "width" 4 (String.length ramp);
  Alcotest.(check bool) "peak glyph" true (ramp.[3] = '@');
  Alcotest.(check bool) "zero glyph" true (ramp.[0] = ' ')

let test_sparkline_resamples () =
  let s = Metrics.Timeline.sparkline ~width:3 [| 1.; 1.; 1.; 1.; 1.; 1. |] in
  Alcotest.(check int) "resampled width" 3 (String.length s);
  Alcotest.(check bool) "uniform" true
    (s.[0] = s.[1] && s.[1] = s.[2] && s.[0] = '@')

let test_bucketize () =
  let bins =
    Metrics.Timeline.bucketize
      ~values:[ (0., 1.); (4.9, 2.); (5., 3.); (100., 9.) ]
      ~from:0. ~until:10. ~width:2
  in
  Alcotest.(check (array (float 1e-9))) "bins" [| 3.; 3. |] bins;
  Alcotest.(check bool) "validates" true
    (try
       ignore (Metrics.Timeline.bucketize ~values:[] ~from:1. ~until:1. ~width:2);
       false
     with Invalid_argument _ -> true)

let test_loops_band () =
  let loop members birth death =
    { Loopscan.Scanner.members; birth; death; trigger = List.hd members }
  in
  let band =
    Metrics.Timeline.loops_band
      ~loops:[ loop [ 1; 2 ] 0. (Some 5.); loop [ 3; 4 ] 2.5 (Some 5.) ]
      ~from:0. ~until:10. ~width:4
  in
  (* bins of 2.5s: [0,2.5) one loop, [2.5,5) two, [5,7.5) none, [7.5,10) none *)
  Alcotest.(check string) "band" "12  " band

let test_render_run_shape () =
  let fib = fib_with ~n:3 [ (1., 1, Some 0) ] in
  let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:0. () in
  let text =
    Metrics.Timeline.render_run ~fib ~loops:report ~exhaustion_times:[| 2. |]
      ~from:0. ~until:10. ~width:20 ()
  in
  Alcotest.(check int) "four lines" 4
    (List.length (String.split_on_char '\n' text))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "metrics"
    [
      ( "assembly",
        [
          tc "fields consistent with sources" test_make_consistency;
          tc "packet fates conserve" test_packet_conservation;
        ] );
      ( "mean",
        [
          tc "zero shape" test_zero_is_mean_identity_shape;
          tc "arithmetic" test_mean_arithmetic;
          tc "converged conjunction" test_mean_converged_conjunction;
          tc "rejects empty" test_mean_rejects_empty;
          tc "singleton identity" test_mean_singleton_identity;
        ] );
      ( "rendering",
        [
          tc "row matches header" test_row_rendering;
          tc "pp output" test_pp_mentions_convergence;
        ] );
      ( "convergence-analysis",
        [
          tc "per-node settle times" test_convergence_per_node;
          tc "no changes" test_convergence_no_changes;
          tc "churn timeline" test_churn_timeline;
        ] );
      ( "export",
        [
          tc "fib changes csv" test_export_fib_csv;
          tc "sends csv" test_export_sends_csv;
          tc "loops csv" test_export_loops_csv;
          tc "series csv" test_export_series_csv;
          tc "run csvs pinned" test_export_run_csvs_pinned;
        ] );
      ( "timeline",
        [
          tc "sparkline shapes" test_sparkline_shapes;
          tc "sparkline resamples" test_sparkline_resamples;
          tc "bucketize" test_bucketize;
          tc "loops band" test_loops_band;
          tc "render_run shape" test_render_run_shape;
        ] );
    ]

(* Tests for the sustained-churn service mode (lib/churn).

   The load-bearing properties:
   - determinism: identical configurations produce identical digest
     chains, event counts and counters;
   - checkpoint/resume exactness: a run killed at an epoch boundary
     and resumed reproduces the uninterrupted run's digest chain
     bit-for-bit (the golden-digest acceptance criterion);
   - the loop events the run's tracker emits as it goes equal those of
     a post-hoc scan of the FIB history rebuilt from the run's own
     [Fib_change] events;
   - the checkpoint bytes of one fixed run are pinned (a layout change
     needs a checkpoint version bump);
   - arena compaction is invisible: a compact-every-epoch run and a
     never-compacting run emit identical traces, and re-interning
     preserves every handle's contents, hash and membership answers;
   - structured failure statuses: stall detection and the wall-clock
     watchdog yield [Stalled] / [Wall_expired], never a hang. *)

let fmt = Printf.sprintf

let graph_cache = Hashtbl.create 8

let graph_of n =
  match Hashtbl.find_opt graph_cache n with
  | Some g -> g
  | None ->
      let g = Topo.Internet.generate ~seed:11 n in
      Hashtbl.add graph_cache n g;
      g

let origin_of g = List.hd (Topo.Graph.min_degree_nodes g)

let base_cfg ?(seed = 3) ?(n = 20) ?(epochs = 6) ?(flap_rate = 6.)
    ?checkpoint_dir ?(checkpoint_every = 3) ?(compact_every = 4)
    ?kill_after_epoch ?stall_epochs () =
  let graph = graph_of n in
  Churn.Driver.make ~seed
    ~workload:(Churn.Workload.make ~epoch_len:120. ~flap_rate ())
    ~epochs ?checkpoint_dir ~checkpoint_every ~compact_every
    ?kill_after_epoch ?stall_epochs ~graph ~origin:(origin_of graph) ()

(* [f] gets a fresh checkpoint directory, which is removed with its
   files when [f] returns or raises. *)
let with_temp_dir =
  let counter = ref 0 in
  fun f ->
    incr counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (fmt "bgpsim-churn-test-%d-%d" (Unix.getpid ()) !counter)
    in
    let remove () =
      if Sys.file_exists path then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat path name))
          (Sys.readdir path);
        Sys.rmdir path
      end
    in
    remove ();
    Sys.mkdir path 0o700;
    Fun.protect ~finally:remove (fun () -> f path)

let chain r =
  match r.Churn.Driver.chain_digest with
  | Some d -> d
  | None -> Alcotest.fail "expected a chain digest"

(* --- determinism --- *)

let test_run_twice_identical () =
  let a = Churn.Driver.run (base_cfg ()) in
  let b = Churn.Driver.run (base_cfg ()) in
  Alcotest.(check string) "chain digest" (chain a) (chain b);
  Alcotest.(check int) "events" a.events_executed b.events_executed;
  Alcotest.(check (float 0.)) "vtime" a.vtime b.vtime;
  Alcotest.(check int) "updates sent" a.counters.Obs.Counters.s_updates_sent
    b.counters.Obs.Counters.s_updates_sent;
  Alcotest.(check int) "fib changes" a.counters.Obs.Counters.s_fib_changes
    b.counters.Obs.Counters.s_fib_changes;
  Alcotest.(check int) "loops started"
    a.loop_totals.Loopscan.Scanner.loops_started
    b.loop_totals.Loopscan.Scanner.loops_started;
  Alcotest.(check bool) "completed" true (a.status = Churn.Driver.Completed)

let test_workload_validation () =
  let raises name f =
    Alcotest.(check bool) name true
      (match (f () : Churn.Workload.t) with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  raises "flap_rate nan" (fun () -> Churn.Workload.make ~flap_rate:nan ());
  raises "flap_rate inf" (fun () ->
      Churn.Workload.make ~flap_rate:infinity ());
  raises "flap_rate -1" (fun () -> Churn.Workload.make ~flap_rate:(-1.) ());
  raises "epoch_len inf" (fun () ->
      Churn.Workload.make ~epoch_len:infinity ());
  raises "epoch_len nan" (fun () -> Churn.Workload.make ~epoch_len:nan ());
  raises "epoch_len 0" (fun () -> Churn.Workload.make ~epoch_len:0. ());
  Alcotest.(check (float 0.)) "flap_rate 100 accepted" 100.
    (Churn.Workload.flap_rate (Churn.Workload.make ~flap_rate:100. ()))

let test_workload_deterministic_and_paired () =
  let graph = graph_of 20 in
  let gen () =
    Churn.Workload.generate
      (Churn.Workload.make ~epoch_len:100. ~flap_rate:12. ())
      ~graph
      ~rng:(Dessim.Rng.create ~seed:42)
  in
  let steps = gen () in
  Alcotest.(check bool) "same rng state, same schedule" true (gen () = steps);
  Alcotest.(check bool) "non-trivial schedule" true (List.length steps > 0);
  List.iter
    (fun { Churn.Workload.at; _ } ->
      Alcotest.(check bool) (fmt "step at %g inside epoch" at) true
        (at >= 0. && at <= 90.))
    steps;
  (* every fail is matched by a recover on the same link, and every
     origin withdrawal by a later re-announcement: epochs return the
     network to full-up *)
  let count pred = List.length (List.filter pred steps) in
  let fails l =
    count (fun s -> s.Churn.Workload.action = Churn.Workload.Fault (Faults.Scenario.Link_fail l))
  in
  let recovers l =
    count (fun s ->
        s.Churn.Workload.action
        = Churn.Workload.Fault (Faults.Scenario.Link_recover l))
  in
  List.iter
    (fun l ->
      Alcotest.(check int)
        (fmt "link (%d,%d) fails = recovers" (fst l) (snd l))
        (fails l) (recovers l))
    (Topo.Graph.edges graph);
  Alcotest.(check int) "origin downs = ups"
    (count (fun s -> s.Churn.Workload.action = Churn.Workload.Origin_down))
    (count (fun s -> s.Churn.Workload.action = Churn.Workload.Origin_up));
  match
    List.rev
      (List.filter
         (fun s ->
           s.Churn.Workload.action = Churn.Workload.Origin_down
           || s.Churn.Workload.action = Churn.Workload.Origin_up)
         steps)
  with
  | [] -> ()
  | last :: _ ->
      Alcotest.(check bool) "origin ends announced" true
        (last.Churn.Workload.action = Churn.Workload.Origin_up)

(* --- checkpoint/resume equivalence (the golden-digest criterion) --- *)

let test_resume_matches_uninterrupted () =
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  let full =
    Churn.Driver.run (base_cfg ~epochs:7 ~checkpoint_dir:dir_a ())
  in
  let killed =
    Churn.Driver.run
      (base_cfg ~epochs:7 ~checkpoint_dir:dir_b ~kill_after_epoch:3 ())
  in
  (match killed.status with
  | Churn.Driver.Killed { after_epoch } ->
      Alcotest.(check int) "killed at the requested boundary" 3 after_epoch
  | s -> Alcotest.fail ("expected Killed, got " ^ Churn.Driver.status_name s));
  let ckpt =
    match killed.last_checkpoint with
    | Some p -> p
    | None -> Alcotest.fail "kill must leave a checkpoint"
  in
  let resumed =
    Churn.Driver.run ~resume_from:ckpt
      (base_cfg ~epochs:7 ~checkpoint_dir:dir_b ())
  in
  Alcotest.(check bool) "resumed run completed" true
    (resumed.status = Churn.Driver.Completed);
  Alcotest.(check int) "epochs" full.epochs_completed resumed.epochs_completed;
  Alcotest.(check string) "chain digest identical across kill+resume"
    (chain full) (chain resumed);
  Alcotest.(check int) "cumulative events" full.events_executed
    resumed.events_executed;
  Alcotest.(check (float 0.)) "vtime" full.vtime resumed.vtime;
  Alcotest.(check int) "updates sent"
    full.counters.Obs.Counters.s_updates_sent
    resumed.counters.Obs.Counters.s_updates_sent;
  Alcotest.(check int) "fib changes" full.counters.Obs.Counters.s_fib_changes
    resumed.counters.Obs.Counters.s_fib_changes;
  let ta = full.loop_totals and tb = resumed.loop_totals in
  Alcotest.(check int) "loops started" ta.Loopscan.Scanner.loops_started
    tb.Loopscan.Scanner.loops_started;
  Alcotest.(check int) "loops resolved" ta.Loopscan.Scanner.loops_resolved
    tb.Loopscan.Scanner.loops_resolved;
  Alcotest.(check (float 1e-9)) "loop seconds"
    ta.Loopscan.Scanner.total_loop_seconds
    tb.Loopscan.Scanner.total_loop_seconds

let test_resume_from_every_checkpoint () =
  (* resuming from ANY boundary checkpoint of one run reproduces the
     same final chain *)
  with_temp_dir @@ fun dir ->
  let full =
    Churn.Driver.run
      (base_cfg ~epochs:6 ~checkpoint_dir:dir ~checkpoint_every:2 ())
  in
  let checkpoints =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.map (Filename.concat dir)
  in
  Alcotest.(check bool) "several checkpoints on disk" true
    (List.length checkpoints >= 3);
  List.iter
    (fun ckpt ->
      let resumed =
        Churn.Driver.run ~resume_from:ckpt (base_cfg ~epochs:6 ())
      in
      Alcotest.(check string)
        (Filename.basename ckpt ^ " replays to the same chain")
        (chain full) (chain resumed))
    checkpoints

let test_checkpoint_refuses_mismatch () =
  with_temp_dir @@ fun dir ->
  let killed =
    Churn.Driver.run
      (base_cfg ~epochs:4 ~checkpoint_dir:dir ~kill_after_epoch:2 ())
  in
  let ckpt = Option.get killed.Churn.Driver.last_checkpoint in
  (try
     ignore
       (Churn.Driver.run ~resume_from:ckpt (base_cfg ~seed:4 ~epochs:4 ())
         : Churn.Driver.result);
     Alcotest.fail "resume under a different seed must be refused"
   with Invalid_argument msg ->
     Alcotest.(check bool) "names the fingerprint" true
       (String.length msg > 0
       && String.index_opt msg 'f' <> None));
  (* corrupt header *)
  let bogus = Filename.concat dir "ckpt-bogus.bin" in
  let oc = open_out_bin bogus in
  output_string oc "not a checkpoint at all";
  close_out oc;
  Alcotest.(check bool) "foreign file rejected" true
    (try
       ignore (Churn.Checkpoint.read bogus : Churn.Checkpoint.t);
       false
     with Failure _ -> true);
  (* a current-version header over a damaged payload must fail the
     length/md5 check before anything is unmarshalled: a truncated
     payload would otherwise die in input_value, and a flipped bit
     would resume silently onto a different chain *)
  let bytes =
    let ic = open_in_bin ckpt in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let n = String.length bytes in
  let damaged name contents =
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    path
  in
  let expect_corrupt label path =
    match Churn.Checkpoint.read path with
    | _ -> Alcotest.failf "%s: damaged checkpoint accepted" label
    | exception Churn.Checkpoint.Corrupt { path = p; _ } ->
        Alcotest.(check string) (label ^ ": path reported") path p
  in
  expect_corrupt "one-byte truncation"
    (damaged "ckpt-truncated.bin" (String.sub bytes 0 (n - 1)));
  (* the middle byte lies well inside the marshalled payload *)
  let flipped =
    let b = Bytes.of_string bytes in
    Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 1));
    damaged "ckpt-flipped.bin" (Bytes.to_string b)
  in
  expect_corrupt "payload bit flip" flipped;
  (* the same structured exception surfaces through Driver.run *)
  match Churn.Driver.run ~resume_from:flipped (base_cfg ~epochs:4 ()) with
  | _ -> Alcotest.fail "driver must refuse a corrupt checkpoint"
  | exception Churn.Checkpoint.Corrupt _ -> ()

let test_checkpoint_incompatible_version () =
  with_temp_dir @@ fun dir ->
  let stale = Filename.concat dir "ckpt-000004.bin" in
  let oc = open_out_bin stale in
  output_string oc "bgpsim-churn-ckpt v1\nold marshalled payload";
  close_out oc;
  (* structured error, not a generic Failure: callers (the CLI) map it
     to a dedicated exit code *)
  (try
     ignore (Churn.Checkpoint.read stale : Churn.Checkpoint.t);
     Alcotest.fail "v1 checkpoint must be rejected"
   with Churn.Checkpoint.Incompatible_version { path; found; expected } ->
     Alcotest.(check string) "path reported" stale path;
     Alcotest.(check int) "found version" 1 found;
     Alcotest.(check int) "expected version" Churn.Checkpoint.version expected);
  (* the same structured exception surfaces through Driver.run *)
  try
    ignore
      (Churn.Driver.run ~resume_from:stale (base_cfg ())
        : Churn.Driver.result);
    Alcotest.fail "driver must refuse a v1 checkpoint"
  with Churn.Checkpoint.Incompatible_version _ -> ()

(* --- trace sink tee: the driver's external sink sees the same events
   the digest chain is built from --- *)

let test_driver_sink_matches_digest_chain () =
  let events = ref [] in
  let sink = Obs.Sink.fn (fun ev -> events := ev :: !events) in
  let r = Churn.Driver.run ~sink (base_cfg ~epochs:3 ()) in
  let events = List.rev !events in
  Alcotest.(check bool) "sink saw events" true (List.length events > 0);
  (* recompute the chain from the sink's events, split at epoch
     boundaries the same way the driver does: warm-up events (before
     scan_begin) are excluded, and each epoch's binary frames are
     digested then folded into the chain *)
  let r2 =
    let infos = ref [] in
    let collect ei = infos := ei :: !infos in
    ignore
      (Churn.Driver.run ~on_epoch:collect (base_cfg ~epochs:3 ())
        : Churn.Driver.result);
    List.rev !infos
  in
  let buf = Buffer.create 4096 in
  let chain_acc = ref "" in
  let remaining = ref events in
  (* drop warm-up: events at or before scan_begin belong to warm-up *)
  remaining :=
    List.filter (fun ev -> Obs.Event.time ev > r.scan_begin) !remaining;
  List.iter
    (fun (ei : Churn.Driver.epoch_info) ->
      let this_epoch, rest =
        List.partition (fun ev -> Obs.Event.time ev <= ei.ei_vtime) !remaining
      in
      remaining := rest;
      Buffer.clear buf;
      List.iter (Obs.Binary.encode buf) this_epoch;
      let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      Alcotest.(check (option string))
        (fmt "epoch %d digest" ei.ei_epoch)
        ei.ei_digest (Some d);
      chain_acc := Digest.to_hex (Digest.string (!chain_acc ^ d)))
    r2;
  Alcotest.(check string) "chain recomputed from the sink's events"
    (chain r) !chain_acc

(* The checkpoint payload is a Marshal of the driver's state, so its
   bytes are the layout of every record in it (speaker snapshots, the
   loop tracker, the RNG streams).  A layout change must come with a
   {!Churn.Checkpoint.version} bump; this pins the bytes of one fixed
   run so such a change cannot go unnoticed.  Re-record the md5 only
   together with a version bump. *)
let test_checkpoint_bytes_pinned () =
  with_temp_dir @@ fun dir ->
  ignore
    (Churn.Driver.run
       (base_cfg ~epochs:4 ~checkpoint_dir:dir ~checkpoint_every:2 ())
      : Churn.Driver.result);
  let path = Churn.Checkpoint.path ~dir ~epoch:4 in
  Alcotest.(check string) "ckpt-000004.bin md5"
    "d69529daebb7b65524d728ac718994df"
    (Digest.to_hex (Digest.file path))

let test_checkpoint_latest () =
  with_temp_dir @@ fun dir ->
  ignore
    (Churn.Driver.run
       (base_cfg ~epochs:5 ~checkpoint_dir:dir ~checkpoint_every:2 ())
      : Churn.Driver.result);
  match Churn.Checkpoint.latest ~dir with
  | Some (epoch, path) ->
      Alcotest.(check int) "latest is the final boundary" 5 epoch;
      Alcotest.(check bool) "path exists" true (Sys.file_exists path)
  | None -> Alcotest.fail "expected checkpoints"

(* --- structured statuses: stall and wall budget --- *)

let test_stall_detection () =
  let r =
    Churn.Driver.run (base_cfg ~flap_rate:0. ~epochs:50 ~stall_epochs:2 ())
  in
  (match r.status with
  | Churn.Driver.Stalled { idle_epochs } ->
      Alcotest.(check int) "reported idle epochs" 2 idle_epochs
  | s -> Alcotest.fail ("expected Stalled, got " ^ Churn.Driver.status_name s));
  Alcotest.(check int) "stopped at the stall, not the horizon" 2
    r.epochs_completed

let test_wall_budget_graceful () =
  let wd = Faults.Watchdog.create ~clock:(fun () -> 0.) ~max_wall_s:0. () in
  with_temp_dir @@ fun dir ->
  let r = Churn.Driver.run ~watchdog:wd (base_cfg ~checkpoint_dir:dir ()) in
  Alcotest.(check bool) "wall expired" true
    (r.status = Churn.Driver.Wall_expired);
  Alcotest.(check int) "no epoch completed" 0 r.epochs_completed;
  (* graceful: the result still carries counters and totals *)
  Alcotest.(check int) "no loops" 0 r.loop_totals.Loopscan.Scanner.loops_started

let test_wall_budget_mid_horizon () =
  (* expire after three clock queries: the run cuts at a later epoch,
     reporting the epochs it actually finished *)
  let calls = ref 0 in
  let clock () =
    incr calls;
    if !calls > 12 then 1e9 else 0.
  in
  let wd = Faults.Watchdog.create ~clock ~max_wall_s:1. () in
  let r = Churn.Driver.run ~watchdog:wd (base_cfg ~epochs:1000 ()) in
  Alcotest.(check bool) "wall expired mid-horizon" true
    (r.status = Churn.Driver.Wall_expired);
  Alcotest.(check bool) "made some progress" true (r.epochs_completed >= 1);
  Alcotest.(check bool) "cut before the horizon" true
    (r.epochs_completed < 1000)

(* --- the run's loop tracker vs a post-hoc scan of its history --- *)

let loop_events events =
  List.filter_map
    (function
      | (Obs.Event.Loop_detected _ | Obs.Event.Loop_resolved _) as ev ->
          Some (Obs.Event.to_json ev)
      | _ -> None)
    events

(* The driver keeps no FIB history; the [Fib_change] events it sends to
   [?sink] (warm-up included) rebuild it.  A post-hoc scan of that
   history must emit the very [Loop_*] events the run's tracker emitted
   as the changes happened, and agree with the run's loop totals. *)
let test_stream_matches_posthoc_on_churn () =
  let events = ref [] in
  let sink = Obs.Sink.fn (fun ev -> events := ev :: !events) in
  let r = Churn.Driver.run ~sink (base_cfg ~epochs:6 ~flap_rate:8. ()) in
  let events = List.rev !events in
  let graph = graph_of 20 in
  let fib = Netcore.Fib_history.create ~n:(Topo.Graph.n_nodes graph) in
  List.iter
    (function
      | Obs.Event.Fib_change { time; node; next_hop; _ } ->
          Netcore.Fib_history.record fib ~time ~node ~next_hop
      | _ -> ())
    events;
  let posthoc = ref [] in
  let obs =
    Obs.Bus.create ~sink:(Obs.Sink.fn (fun ev -> posthoc := ev :: !posthoc)) ()
  in
  (* [scan_begin] is the warm-up drain instant: changes AT it belong to
     the tracker's starting snapshot, strictly-later ones to the scan *)
  let post =
    Loopscan.Scanner.scan ~obs ~fib ~origin:(origin_of graph)
      ~from:(Float.succ r.scan_begin) ()
  in
  Alcotest.(check bool) "churn produced loops" true
    (List.length post.loops > 0);
  Alcotest.(check (list string)) "Loop_* events identical"
    (loop_events (List.rev !posthoc))
    (loop_events events);
  let t = r.loop_totals in
  Alcotest.(check int) "loops started" (List.length post.loops)
    t.Loopscan.Scanner.loops_started;
  Alcotest.(check int) "max concurrent" post.max_concurrent
    t.Loopscan.Scanner.max_concurrent;
  Alcotest.(check (option (float 0.))) "first birth" post.first_loop_birth
    t.Loopscan.Scanner.first_loop_birth;
  Alcotest.(check (option (float 0.))) "last death" post.last_loop_death
    t.Loopscan.Scanner.last_loop_death

(* --- arena compaction properties --- *)

let test_compaction_invisible_and_bounding () =
  let every = Churn.Driver.run (base_cfg ~compact_every:1 ~epochs:8 ()) in
  let never =
    Churn.Driver.run (base_cfg ~compact_every:1_000_000 ~epochs:8 ())
  in
  Alcotest.(check string) "identical trace chains" (chain never) (chain every);
  Alcotest.(check int) "identical events" never.events_executed
    every.events_executed;
  Alcotest.(check bool)
    (fmt "compaction bounds the arena (%d <= %d)" every.arena_size
       never.arena_size)
    true
    (every.arena_size <= never.arena_size)

let prop_compaction_oracle =
  QCheck.Test.make ~name:"churn: compaction never changes the trace" ~count:6
    QCheck.(
      triple (int_range 10 16) (int_range 1 1000) (int_range 3 5))
    (fun (n, seed, epochs) ->
      let cfg ~compact_every =
        let graph = graph_of n in
        Churn.Driver.make ~seed
          ~workload:(Churn.Workload.make ~epoch_len:90. ~flap_rate:5. ())
          ~epochs ~compact_every ~graph ~origin:(origin_of graph) ()
      in
      let a = Churn.Driver.run (cfg ~compact_every:1) in
      let b = Churn.Driver.run (cfg ~compact_every:1_000_000) in
      a.Churn.Driver.chain_digest = b.Churn.Driver.chain_digest
      && a.Churn.Driver.events_executed = b.Churn.Driver.events_executed
      && a.Churn.Driver.arena_size <= b.Churn.Driver.arena_size)

(* Duplicate-free AS lists (of_list rejects repeats by design). *)
let distinct_list_gen =
  QCheck.Gen.(
    list_size (0 -- 8) (0 -- 200) >|= fun l ->
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      l)

let prop_reintern_preserves_handles =
  QCheck.Test.make
    ~name:"churn: reintern preserves contents, hash and membership"
    ~count:300
    QCheck.(
      make
        Gen.(pair (list_size (1 -- 20) distinct_list_gen) (0 -- 210))
        ~print:(fun (ls, probe) ->
          fmt "probe=%d paths=%s" probe
            (String.concat " "
               (List.map
                  (fun l ->
                    "[" ^ String.concat ";" (List.map string_of_int l) ^ "]")
                  ls))))
    (fun (lists, probe) ->
      let old_arena = Bgp.As_path.Table.create () in
      let handles =
        List.map (fun l -> Bgp.As_path.of_list ~table:old_arena l) lists
      in
      let fresh = Bgp.As_path.Table.create () in
      List.for_all2
        (fun l p ->
          let q = Bgp.As_path.reintern ~table:fresh p in
          Bgp.As_path.to_list q = l
          && Bgp.As_path.hash q = Bgp.As_path.hash p
          && Bgp.As_path.length q = List.length l
          && Bgp.As_path.contains q probe = List.mem probe l
          && List.for_all (fun v -> Bgp.As_path.contains q v) l
          && Bgp.As_path.equal q p)
        lists handles
      && Bgp.As_path.Table.size fresh <= Bgp.As_path.Table.size old_arena)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "churn"
    [
      ( "determinism",
        [
          tc "run twice, identical chain" test_run_twice_identical;
          tc "workload schedule deterministic and paired"
            test_workload_deterministic_and_paired;
        ] );
      ( "workload",
        [ tc "rejects NaN, infinite and out-of-range parameters"
            test_workload_validation ] );
      ( "checkpoint/resume",
        [
          tc "kill + resume = uninterrupted" test_resume_matches_uninterrupted;
          tc "resume from every checkpoint" test_resume_from_every_checkpoint;
          tc "mismatch and corruption refused" test_checkpoint_refuses_mismatch;
          tc "incompatible version structured"
            test_checkpoint_incompatible_version;
          tc "latest finds the final boundary" test_checkpoint_latest;
          tc "checkpoint bytes pinned" test_checkpoint_bytes_pinned;
        ] );
      ( "trace sink",
        [
          tc "sink events reproduce the digest chain"
            test_driver_sink_matches_digest_chain;
        ] );
      ( "statuses",
        [
          tc "stall detection" test_stall_detection;
          tc "wall budget from the start" test_wall_budget_graceful;
          tc "wall budget mid-horizon" test_wall_budget_mid_horizon;
        ] );
      ( "streaming scanner",
        [
          tc "stream = post-hoc on churn history"
            test_stream_matches_posthoc_on_churn;
        ] );
      ( "compaction",
        [
          tc "compaction invisible, arena bounded"
            test_compaction_invisible_and_bounding;
          qc prop_compaction_oracle;
          qc prop_reintern_preserves_handles;
        ] );
    ]

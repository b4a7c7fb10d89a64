(* Long-horizon churn engine.

   One persistent simulation driven through a sequence of workload
   epochs.  Each epoch: schedule that epoch's churn events (from
   {!Workload}), run the engine to drain, then do boundary work —
   loop-tracker bookkeeping, digest chaining, stall detection, arena
   compaction, checkpointing.  Epoch boundaries are the only places
   the run pauses, because a drained network is plain data: that is
   what makes checkpoint/resume exact and arena compaction safe.

   Memory is bounded by construction: no Trace, no FIB history (a
   [fib_now] array mirrors the forwarding state), the loop tracker
   holds only live loops and totals, and the path arena is rebuilt
   from live handles every [compact_every] epochs.  A caller that
   wants the history rebuilds it from the [Fib_change] events on
   [?sink]. *)

type status =
  | Completed
  | Stalled of { idle_epochs : int }
  | Wall_expired
  | Event_limit
  | Killed of { after_epoch : int }

let status_name = function
  | Completed -> "completed"
  | Stalled { idle_epochs } ->
      Printf.sprintf "stalled (%d idle epochs)" idle_epochs
  | Wall_expired -> "wall-expired"
  | Event_limit -> "event-limit"
  | Killed { after_epoch } ->
      Printf.sprintf "killed (after epoch %d)" after_epoch

type cfg = {
  graph : Topo.Graph.t;
  origin : int;
  seed : int;
  bgp : Bgp.Config.t;
  params : Netcore.Params.t;
  workload : Workload.t;
  epochs : int;
  target_events : int option;
  checkpoint_dir : string option;
  checkpoint_every : int;
  compact_every : int;
  digest : bool;
  stall_epochs : int option;
  kill_after_epoch : int option;
}

(* Hang protection within one epoch: a phase that runs past this many
   engine events ends the run with [Event_limit]. *)
let max_epoch_events = 50_000_000

let make ?(seed = 1) ?(bgp = Bgp.Config.default)
    ?(params = Netcore.Params.default) ?(workload = Workload.make ())
    ?(epochs = 10) ?target_events ?checkpoint_dir ?(checkpoint_every = 4)
    ?(compact_every = 8) ?(digest = true) ?stall_epochs ?kill_after_epoch
    ~graph ~origin () =
  {
    graph;
    origin;
    seed;
    bgp;
    params;
    workload;
    epochs;
    target_events;
    checkpoint_dir;
    checkpoint_every;
    compact_every;
    digest;
    stall_epochs;
    kill_after_epoch;
  }

type epoch_info = {
  ei_epoch : int;
  ei_vtime : float;
  ei_events : int;  (* engine events this epoch *)
  ei_fib_changes : int;
  ei_live_loops : int;
  ei_arena_size : int;
  ei_compacted : bool;
  ei_checkpoint : string option;
  ei_digest : string option;
}

type result = {
  status : status;
  epochs_completed : int;
  events_executed : int;
  vtime : float;
  chain_digest : string option;
  loop_totals : Loopscan.Scanner.totals;
  counters : Obs.Counters.snapshot;
  arena_size : int;
  arena_words : int;
  arena_peak : int;
  last_checkpoint : string option;
  scan_begin : float;
}

(* Everything that (deterministically) shapes the trace goes into the
   fingerprint; a resume under a different configuration would diverge
   silently, so it is refused up front.  Policy closures cannot be
   digested — the policy contributes its name, which the built-in
   policies keep unique. *)
let fingerprint cfg =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "n=%d;" (Topo.Graph.n_nodes cfg.graph);
  List.iter (fun (x, y) -> add "(%d,%d)" x y) (Topo.Graph.edges cfg.graph);
  add ";origin=%d;seed=%d;" cfg.origin cfg.seed;
  let c = cfg.bgp in
  add "mrai=%g;jitter=%g;wrate=%b;ssld=%b;assert=%b;ghost=%b;"
    c.Bgp.Config.mrai c.Bgp.Config.mrai_jitter_min c.Bgp.Config.wrate
    c.Bgp.Config.ssld c.Bgp.Config.assertion c.Bgp.Config.ghost_flushing;
  add "rl=%s;"
    (match c.Bgp.Config.rate_limiter with
    | Bgp.Mrai.Collapse -> "collapse"
    | Bgp.Mrai.Fifo -> "fifo");
  add "policy=%s;" c.Bgp.Config.policy.Bgp.Policy.name;
  let p = cfg.params in
  add "link=%g;proc=%g..%g;ttl=%d;rate=%g;" p.Netcore.Params.link_delay
    p.Netcore.Params.proc_delay_min p.Netcore.Params.proc_delay_max
    p.Netcore.Params.ttl p.Netcore.Params.pkt_rate;
  add "epoch_len=%g;flap_rate=%g" (Workload.epoch_len cfg.workload)
    (Workload.flap_rate cfg.workload);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The params, config and connectivity checks are the network's. *)
let validate cfg =
  let n = Topo.Graph.n_nodes cfg.graph in
  if cfg.origin < 0 || cfg.origin >= n then
    invalid_arg "Churn.Driver: origin out of range";
  if cfg.bgp.Bgp.Config.damping <> None then
    invalid_arg
      "Churn.Driver: route-flap damping holds timer state that cannot be \
       checkpointed; use damping = None";
  if cfg.epochs < 0 then invalid_arg "Churn.Driver: epochs must be >= 0";
  if cfg.checkpoint_every <= 0 then
    invalid_arg "Churn.Driver: checkpoint_every must be positive";
  if cfg.compact_every <= 0 then
    invalid_arg "Churn.Driver: compact_every must be positive";
  (match cfg.stall_epochs with
  | Some s when s <= 0 ->
      invalid_arg "Churn.Driver: stall_epochs must be positive"
  | Some _ | None -> ())

let run ?(watchdog = Faults.Watchdog.unlimited) ?on_epoch ?resume_from ?sink
    ?profile cfg =
  validate cfg;
  let n = Topo.Graph.n_nodes cfg.graph in
  let fp = fingerprint cfg in
  let ckpt =
    match resume_from with
    | None -> None
    | Some p ->
        let ck = Checkpoint.read p in
        if ck.Checkpoint.fingerprint <> fp then
          invalid_arg
            "Churn.Driver: checkpoint was taken under a different \
             configuration (fingerprint mismatch)";
        Some ck
  in
  let engine =
    match ckpt with
    | Some ck -> Dessim.Engine.create ~now:ck.Checkpoint.vtime ()
    | None -> Dessim.Engine.create ()
  in
  (* --- observability: counters always on; the per-epoch digest sink
     folds the byte-stable binary encoding (Obs.Binary frames) of every
     event — no JSON rendering on the hot path.  An optional caller
     sink (e.g. a trace file) is teed in and closed on finish. --- *)
  let counters = Obs.Counters.create () in
  let digest_buf = Buffer.create (if cfg.digest then 1 lsl 16 else 16) in
  let digest_sink =
    if cfg.digest then
      Some (Obs.Sink.fn (fun ev -> Obs.Binary.encode digest_buf ev))
    else None
  in
  let obs =
    match (digest_sink, sink) with
    | Some d, Some s -> Obs.Bus.create ~sink:(Obs.Sink.tee d s) ~counters ()
    | Some d, None -> Obs.Bus.create ~sink:d ~counters ()
    | None, Some s -> Obs.Bus.create ~sink:s ~counters ()
    | None, None -> Obs.Bus.create ~counters ()
  in
  (* --- RNG streams: fresh splits, or the checkpointed states --- *)
  let proc_rng, workload_rng, speaker_rngs =
    match ckpt with
    | Some ck ->
        ( ck.Checkpoint.rng_proc,
          ck.Checkpoint.rng_workload,
          ck.Checkpoint.rng_speakers )
    | None ->
        (* split order (each split advances the root): the speakers,
           then the workload, then processing delays *)
        let root = Dessim.Rng.create ~seed:cfg.seed in
        let speakers = Bgp.Network.speaker_rngs root ~n in
        let workload = Dessim.Rng.split root ~label:"churn-workload" in
        (Dessim.Rng.split root ~label:"proc", workload, speakers)
  in
  let prefix = Bgp.Prefix.make ~origin:cfg.origin () in
  (* --- bounded forwarding-state mirror + loop tracker feed --- *)
  let fib_now =
    match ckpt with
    | Some ck -> Array.copy ck.Checkpoint.fib
    | None -> Array.make n None
  in
  let scan = ref (match ckpt with Some ck -> Some ck.Checkpoint.scan | None -> None) in
  let epoch_fib_changes = ref 0 in
  let on_next_hop_change node ~prefix:p ~next_hop =
    assert (Bgp.Prefix.equal p prefix);
    let time = Dessim.Engine.now engine in
    fib_now.(node) <- next_hop;
    incr epoch_fib_changes;
    Obs.Bus.fib_change obs ~time ~node ~next_hop;
    match !scan with
    | Some s -> Loopscan.Scanner.observe ~obs s ~time ~node ~next_hop
    | None -> ()
  in
  let net =
    Bgp.Network.create ~params:cfg.params ~config:cfg.bgp ~obs ?profile
      ~engine ~graph:cfg.graph
      ~origins:[ (cfg.origin, prefix) ]
      ~proc_rng ~speaker_rngs ~on_next_hop_change ()
  in
  let speaker = Bgp.Network.speaker net in
  (match ckpt with
  | Some ck ->
      Array.iter
        (fun (a, b) -> Netcore.Link.fail (Bgp.Network.link net a b))
        ck.Checkpoint.links_down;
      Array.iteri
        (fun i snap -> Bgp.Speaker.restore (speaker i) snap)
        ck.Checkpoint.speakers
  | None -> ());
  let apply_step = function
    | Workload.Fault action -> Bgp.Network.apply net action
    | Workload.Origin_down ->
        Bgp.Speaker.withdraw_local (speaker cfg.origin) prefix
    | Workload.Origin_up -> Bgp.Speaker.originate (speaker cfg.origin) prefix
  in
  (* --- drain one phase under the per-epoch event cap; [None] when it
     drained, else the terminal status --- *)
  let drain ~epoch_base =
    let cap =
      if max_epoch_events > max_int - epoch_base then max_int
      else epoch_base + max_epoch_events
    in
    match Bgp.Network.run_phase ~watchdog net ~max_events:cap with
    | Bgp.Network.Drained -> None
    | Bgp.Network.Wall_budget -> Some Wall_expired
    | Bgp.Network.Event_budget | Bgp.Network.Vtime_budget (* no [until] *) ->
        Some Event_limit
  in
  (* --- bookkeeping carried across epochs --- *)
  let completed = ref (match ckpt with Some ck -> ck.Checkpoint.epoch | None -> 0) in
  let idle = ref (match ckpt with Some ck -> ck.Checkpoint.idle_epochs | None -> 0) in
  let chain = ref (match ckpt with Some ck -> ck.Checkpoint.chain | None -> "") in
  let events_base = match ckpt with Some ck -> ck.Checkpoint.events | None -> 0 in
  let base_counters = Option.map (fun ck -> ck.Checkpoint.counters) ckpt in
  let last_ckpt = ref resume_from in
  let credited = ref 0 in
  let credit_events () =
    let executed = Dessim.Engine.events_executed engine in
    Obs.Counters.add_events counters (executed - !credited);
    credited := executed
  in
  let cum_events () = events_base + Dessim.Engine.events_executed engine in
  let arena_size () = Bgp.As_path.Table.size (Bgp.Network.paths net) in
  let arena_peak = ref (arena_size ()) in
  let note_arena () =
    let size = arena_size () in
    Obs.Counters.observe_paths_interned counters ~count:size;
    if size > !arena_peak then arena_peak := size
  in
  let full_counters () =
    credit_events ();
    note_arena ();
    let now = Obs.Counters.snapshot counters in
    match base_counters with
    | Some base -> Obs.Counters.merge base now
    | None -> now
  in
  (* Arena epoch compaction: at a drained boundary every live path
     handle sits in some speaker's RIB/FIB state, so re-interning those
     into a fresh arena and dropping the old one bounds arena growth by
     the live set, not by churn history.  The remap is guarded: a
     handle whose contents or hash change would corrupt routing state,
     so it fails hard. *)
  let compact () =
    for i = 0 to n - 1 do
      if not (Bgp.Speaker.quiescent (speaker i)) then
        failwith "Churn.Driver: compaction at a non-quiescent boundary"
    done;
    let fresh = Bgp.As_path.Table.create () in
    let f p =
      let q = Bgp.As_path.reintern ~table:fresh p in
      if
        Bgp.As_path.hash q <> Bgp.As_path.hash p
        || Bgp.As_path.to_list q <> Bgp.As_path.to_list p
      then failwith "Churn.Driver: compaction changed a live path handle";
      q
    in
    for i = 0 to n - 1 do
      Bgp.Speaker.remap_paths (speaker i) ~f
    done;
    Bgp.Network.set_path_table net fresh
  in
  let write_checkpoint dir =
    let scan_state =
      match !scan with Some s -> s | None -> assert false
    in
    let ck =
      {
        Checkpoint.version = Checkpoint.version;
        fingerprint = fp;
        epoch = !completed;
        vtime = Dessim.Engine.now engine;
        events = cum_events ();
        chain = !chain;
        idle_epochs = !idle;
        links_down = Bgp.Network.links_down net;
        speakers =
          Array.init n (fun i -> Bgp.Speaker.snapshot (speaker i));
        fib = Array.copy fib_now;
        scan = scan_state;
        rng_proc = Dessim.Rng.copy proc_rng;
        rng_workload = Dessim.Rng.copy workload_rng;
        rng_speakers = Array.map Dessim.Rng.copy speaker_rngs;
        counters = full_counters ();
      }
    in
    let p = Checkpoint.write ~dir ck in
    last_ckpt := Some p;
    p
  in
  let status = ref None in
  let scan_begin = ref (Dessim.Engine.now engine) in
  (* --- warm-up (fresh runs only): originate and converge, then arm
     the loop tracker on the converged (loop-free) state --- *)
  (match ckpt with
  | Some _ -> ()
  | None ->
      Bgp.Network.originate_all net ~at:(Dessim.Engine.now engine);
      status := drain ~epoch_base:0;
      scan_begin := Dessim.Engine.now engine;
      if !status = None then begin
        scan :=
          Some
            (Loopscan.Scanner.create ~origin:cfg.origin ~initial:fib_now ());
        Buffer.clear digest_buf (* warm-up events are not part of the chain *)
      end);
  (* --- epoch loop --- *)
  while !status = None && !completed < cfg.epochs do
    if Faults.Watchdog.expired watchdog then status := Some Wall_expired
    else begin
      let epoch = !completed + 1 in
      let epoch_start = Dessim.Engine.now engine in
      let epoch_base = Dessim.Engine.events_executed engine in
      epoch_fib_changes := 0;
      let steps =
        Workload.generate cfg.workload ~graph:cfg.graph ~rng:workload_rng
      in
      List.iter
        (fun { Workload.at; action } ->
          let (_ : Dessim.Engine.handle) =
            Dessim.Engine.schedule ~tag:"churn" engine ~at:(epoch_start +. at)
              (fun () -> apply_step action)
          in
          ())
        steps;
      match drain ~epoch_base with
      | Some _ as terminal -> status := terminal
      | None ->
          completed := epoch;
          let epoch_digest =
            if cfg.digest then begin
              let d = Digest.to_hex (Digest.string (Buffer.contents digest_buf)) in
              Buffer.clear digest_buf;
              chain := Digest.to_hex (Digest.string (!chain ^ d));
              Some d
            end
            else None
          in
          if !epoch_fib_changes = 0 then incr idle else idle := 0;
          let stalled =
            match cfg.stall_epochs with
            | Some limit -> !idle >= limit
            | None -> false
          in
          let killed =
            match cfg.kill_after_epoch with
            | Some k -> epoch >= k
            | None -> false
          in
          let target_met =
            match cfg.target_events with
            | Some target -> cum_events () >= target
            | None -> false
          in
          let done_now =
            stalled || killed || target_met || epoch >= cfg.epochs
          in
          let compacted = epoch mod cfg.compact_every = 0 in
          note_arena ();
          if compacted then compact ();
          let ckpt_path =
            match cfg.checkpoint_dir with
            | Some dir when epoch mod cfg.checkpoint_every = 0 || done_now ->
                Some (write_checkpoint dir)
            | Some _ | None -> None
          in
          (match on_epoch with
          | Some f ->
              f
                {
                  ei_epoch = epoch;
                  ei_vtime = Dessim.Engine.now engine;
                  ei_events = Dessim.Engine.events_executed engine - epoch_base;
                  ei_fib_changes = !epoch_fib_changes;
                  ei_live_loops =
                    (match !scan with
                    | Some s -> Loopscan.Scanner.live_loops s
                    | None -> 0);
                  ei_arena_size = arena_size ();
                  ei_compacted = compacted;
                  ei_checkpoint = ckpt_path;
                  ei_digest = epoch_digest;
                }
          | None -> ());
          if stalled then status := Some (Stalled { idle_epochs = !idle })
          else if killed then status := Some (Killed { after_epoch = epoch })
          else if target_met then status := Some Completed
    end
  done;
  let status = match !status with Some s -> s | None -> Completed in
  (* graceful finish, on every path: flush the sink and take the final
     counter snapshot; [last_ckpt] already points at the most recent
     boundary checkpoint *)
  let final_counters = full_counters () in
  Obs.Bus.close obs;
  let vtime = Dessim.Engine.now engine in
  let scan_state =
    match !scan with
    | Some s -> s
    | None ->
        (* warm-up was cut before the tracker armed *)
        Loopscan.Scanner.create ~origin:cfg.origin
          ~initial:(Array.make n None) ()
  in
  {
    status;
    epochs_completed = !completed;
    events_executed = cum_events ();
    vtime;
    chain_digest = (if cfg.digest then Some !chain else None);
    loop_totals = Loopscan.Scanner.totals scan_state ~until:vtime;
    counters = final_counters;
    arena_size = arena_size ();
    arena_words = Bgp.As_path.Table.words (Bgp.Network.paths net);
    arena_peak = !arena_peak;
    last_checkpoint = !last_ckpt;
    scan_begin = !scan_begin;
  }

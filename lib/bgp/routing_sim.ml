type event =
  | Tdown
  | Tlong of { a : int; b : int }
  | Tup
  | Trecover of { a : int; b : int }
  | Tshort of { a : int; b : int; down_for : float }
  | Scenario of Faults.Scenario.t

type termination = Drained | Event_budget | Vtime_budget | Wall_budget

type outcome = {
  trace : Netcore.Trace.t;
  prefix : Prefix.t;
  t_fail : float;
  convergence_end : float;
  converged : bool;
  termination : termination;
  warmup_end : float;
  updates_after_fail : int;
  withdrawals_after_fail : int;
  events_executed : int;
  route_changes : int;
  paths_interned : int;
  invariant_violations : (Faults.Invariant.kind * int) list;
}

let convergence_time o = o.convergence_end -. o.t_fail

let termination_name = function
  | Drained -> "drained"
  | Event_budget -> "event-budget"
  | Vtime_budget -> "vtime-budget"
  | Wall_budget -> "wall-budget"

(* Quiet gap between warm-up quiescence and failure injection; any value
   works since the warmed-up network is silent (all MRAI timers idle
   once the queue drains). *)
let failure_gap = 10.

let link_key a b = if a < b then (a, b) else (b, a)

let run ?(params = Netcore.Params.default) ?(config = Config.default)
    ?(max_events = 20_000_000) ?max_vtime ?(invariants = Faults.Invariant.Off)
    ?(obs = Obs.Bus.off) ?profile ?watchdog ~graph ~origin ~event ~seed () =
  Netcore.Params.validate params;
  Config.validate config;
  let n = Topo.Graph.n_nodes graph in
  if origin < 0 || origin >= n then
    invalid_arg "Routing_sim.run: origin out of range";
  if not (Topo.Graph.is_connected graph) then
    invalid_arg "Routing_sim.run: graph must be connected";
  (match event with
  | Tdown | Tup | Scenario _ -> ()
  | Tlong { a; b } | Trecover { a; b } | Tshort { a; b; _ } ->
      if not (Topo.Graph.has_edge graph a b) then
        invalid_arg
          (Printf.sprintf "Routing_sim.run: event link (%d,%d) absent" a b));
  (match event with
  | Tshort { down_for; _ } ->
      if down_for <= 0. then
        invalid_arg "Routing_sim.run: Tshort down_for must be positive"
  | Scenario s -> Faults.Scenario.validate s ~graph
  | Tdown | Tup | Tlong _ | Trecover _ -> ());
  if max_events <= 0 then
    invalid_arg "Routing_sim.run: max_events must be positive";
  (match max_vtime with
  | Some t when t <= 0. || Float.is_nan t ->
      invalid_arg "Routing_sim.run: max_vtime must be positive"
  | Some _ | None -> ());
  let engine = Dessim.Engine.create () in
  (match profile with
  | Some p -> Dessim.Engine.set_step_profiler engine (Obs.Profile.step p)
  | None -> ());
  let checker = Faults.Invariant.create invariants in
  if Faults.Invariant.enabled checker then
    Dessim.Engine.set_clock_monitor engine (fun ~old_time ~new_time ->
        if new_time < old_time then
          Faults.Invariant.report checker Faults.Invariant.Clock_regression
            ~detail:(fun () ->
              Printf.sprintf "event at %g fired with clock at %g" new_time
                old_time));
  let trace = Netcore.Trace.create ~n in
  let root_rng = Dessim.Rng.create ~seed in
  let proc_rng = Dessim.Rng.split root_rng ~label:"proc" in
  let links = Hashtbl.create (Topo.Graph.n_edges graph) in
  List.iter
    (fun (a, b) ->
      let link = Netcore.Link.create ~a ~b ~delay:params.link_delay in
      if Faults.Invariant.enabled checker then
        Netcore.Link.attach_checker link checker;
      if Obs.Bus.enabled obs then Netcore.Link.attach_obs link obs;
      Hashtbl.add links (link_key a b) link)
    (Topo.Graph.edges graph);
  let link_of a b =
    match Hashtbl.find_opt links (link_key a b) with
    | Some l -> l
    | None ->
        invalid_arg (Printf.sprintf "Routing_sim: no link (%d,%d)" a b)
  in
  let node_procs =
    Array.init n (fun i -> Netcore.Node_proc.create ~obs ~node:i ())
  in
  (* one hash-consing arena per simulation: every speaker interns into
     it, so the handles in flight compare by pointer (DESIGN.md §12) *)
  let paths = As_path.Table.create () in
  let speakers = Array.make n None in
  let speaker i =
    match speakers.(i) with
    | Some s -> s
    | None -> assert false (* all created before any event runs *)
  in
  let draw_proc_delay () =
    Dessim.Rng.uniform proc_rng ~lo:params.proc_delay_min
      ~hi:params.proc_delay_max
  in
  let emit_from src ~peer msg =
    let link = link_of src peer in
    let withdraw =
      match (msg : Msg.t) with Withdraw _ -> true | Announce _ -> false
    in
    Netcore.Trace.log_send trace
      ~time:(Dessim.Engine.now engine)
      ~src ~dst:peer ~kind:(Msg.kind msg);
    Obs.Bus.update_sent obs
      ~time:(Dessim.Engine.now engine)
      ~src ~dst:peer ~withdraw;
    let deliver () =
      Netcore.Node_proc.submit node_procs.(peer) ~engine
        ~delay:(draw_proc_delay ()) ~work:(fun () ->
          Netcore.Trace.log_process trace
            ~time:(Dessim.Engine.now engine)
            ~node:peer ~from:src ~kind:(Msg.kind msg);
          Obs.Bus.update_recv obs
            ~time:(Dessim.Engine.now engine)
            ~node:peer ~from:src ~withdraw;
          Speaker.handle_msg (speaker peer) ~from:src msg)
    in
    (* A send onto a dead link is dropped silently, like packets into a
       torn-down TCP session. *)
    ignore (Netcore.Link.send link ~engine ~from:src ~deliver : bool)
  in
  let prefix = Prefix.make ~origin () in
  if Obs.Bus.enabled obs then
    Netcore.Fib_history.set_on_change (Netcore.Trace.fib trace)
      (fun { Netcore.Fib_history.time; node; next_hop } ->
        Obs.Bus.fib_change obs ~time ~node ~next_hop);
  let on_next_hop_change_for node ~prefix:p ~next_hop =
    assert (Prefix.equal p prefix);
    Netcore.Fib_history.record (Netcore.Trace.fib trace)
      ~time:(Dessim.Engine.now engine)
      ~node ~next_hop
  in
  for i = 0 to n - 1 do
    let rng = Dessim.Rng.split root_rng ~label:("speaker-" ^ string_of_int i) in
    speakers.(i) <-
      Some
        (Speaker.create ~checker ~obs ~paths ~engine ~config ~rng ~node:i
           ~peers:(Topo.Graph.neighbors graph i)
           ~emit:(emit_from i)
           ~on_next_hop_change:(on_next_hop_change_for i)
           ())
  done;
  (* --- primitive fault actions, shared by the classic events and the
     scripted scenarios --- *)
  let do_link_fail a b =
    let link = link_of a b in
    if Netcore.Link.is_up link then begin
      Netcore.Link.fail link;
      Netcore.Trace.log_link_event trace
        ~time:(Dessim.Engine.now engine)
        ~a ~b ~up:false;
      Obs.Bus.link_state obs ~time:(Dessim.Engine.now engine) ~a ~b ~up:false;
      Speaker.session_down (speaker a) ~peer:b;
      Speaker.session_down (speaker b) ~peer:a
    end
  in
  let do_link_recover a b =
    let link = link_of a b in
    if not (Netcore.Link.is_up link) then begin
      Netcore.Link.restore link;
      Netcore.Trace.log_link_event trace
        ~time:(Dessim.Engine.now engine)
        ~a ~b ~up:true;
      Obs.Bus.link_state obs ~time:(Dessim.Engine.now engine) ~a ~b ~up:true;
      Speaker.session_up (speaker a) ~peer:b;
      Speaker.session_up (speaker b) ~peer:a
    end
  in
  let live_neighbors v =
    List.filter
      (fun u -> Netcore.Link.is_up (link_of u v))
      (Topo.Graph.neighbors graph v)
  in
  let do_node_crash v =
    if Speaker.alive (speaker v) then begin
      Speaker.crash (speaker v);
      (* sessions die with the node; the links themselves stay up *)
      List.iter
        (fun u -> Speaker.session_down (speaker u) ~peer:v)
        (live_neighbors v)
    end
  in
  let do_node_restart v =
    if not (Speaker.alive (speaker v)) then begin
      Speaker.restart (speaker v);
      List.iter
        (fun u ->
          if Speaker.alive (speaker u) then begin
            Speaker.session_up (speaker v) ~peer:u;
            Speaker.session_up (speaker u) ~peer:v
          end)
        (live_neighbors v);
      (* a restarted origin re-injects its prefix (it survives in the
         router's configuration, not in the lost RIB) *)
      if v = origin then Speaker.originate (speaker v) prefix
    end
  in
  let do_session_reset a b =
    if Netcore.Link.is_up (link_of a b) then begin
      Speaker.session_down (speaker a) ~peer:b;
      Speaker.session_down (speaker b) ~peer:a;
      Speaker.session_up (speaker a) ~peer:b;
      Speaker.session_up (speaker b) ~peer:a
    end
  in
  let apply_action = function
    | Faults.Scenario.Link_fail (a, b) -> do_link_fail a b
    | Faults.Scenario.Link_recover (a, b) -> do_link_recover a b
    | Faults.Scenario.Node_crash v -> do_node_crash v
    | Faults.Scenario.Node_restart v -> do_node_restart v
    | Faults.Scenario.Session_reset (a, b) -> do_session_reset a b
  in
  (* With a watchdog, the engine runs in bounded chunks so wall-clock
     expiry is noticed at event granularity; event execution itself is
     identical to one uninterrupted run.  [wall_cut] records that a
     phase was abandoned on expiry. *)
  let wall_cut = ref false in
  let run_engine () =
    match watchdog with
    | None -> Dessim.Engine.run ?until:max_vtime ~max_events engine
    | Some wd ->
        let chunk = 65_536 in
        let continue_ = ref true in
        while !continue_ do
          if Faults.Watchdog.expired wd then begin
            wall_cut := true;
            continue_ := false
          end
          else begin
            let budget =
              Stdlib.min max_events
                (Dessim.Engine.events_executed engine + chunk)
            in
            Dessim.Engine.run ?until:max_vtime ~max_events:budget engine;
            if
              Dessim.Engine.events_executed engine < budget
              || Dessim.Engine.events_executed engine >= max_events
            then continue_ := false
          end
        done
  in
  (* Phase 1: warm-up convergence.  Inverse events warm up without
     the element they will add: Tup never originates here, Trecover
     starts with its link (and both sessions over it) down. *)
  (match event with
  | Trecover { a; b } ->
      Netcore.Link.fail (link_of a b);
      Speaker.session_down (speaker a) ~peer:b;
      Speaker.session_down (speaker b) ~peer:a
  | Tdown | Tlong _ | Tup | Tshort _ | Scenario _ -> ());
  (match event with
  | Tup -> ()
  | Tdown | Tlong _ | Trecover _ | Tshort _ | Scenario _ ->
      let (_ : Dessim.Engine.handle) =
        Dessim.Engine.schedule ~tag:"originate" engine ~at:0. (fun () ->
            Speaker.originate (speaker origin) prefix)
      in
      ());
  run_engine ();
  let warmup_end = Dessim.Engine.now engine in
  let warmup_drained = Dessim.Engine.events_executed engine < max_events in
  (* Phase 2: failure injection. *)
  let t_fail = warmup_end +. failure_gap in
  let schedule_at at f =
    let (_ : Dessim.Engine.handle) =
      Dessim.Engine.schedule ~tag:"inject" engine ~at f
    in
    ()
  in
  (match event with
  | Tdown ->
      schedule_at t_fail (fun () ->
          Speaker.withdraw_local (speaker origin) prefix)
  | Tup ->
      schedule_at t_fail (fun () -> Speaker.originate (speaker origin) prefix)
  | Tlong { a; b } -> schedule_at t_fail (fun () -> do_link_fail a b)
  | Trecover { a; b } -> schedule_at t_fail (fun () -> do_link_recover a b)
  | Tshort { a; b; down_for } ->
      schedule_at t_fail (fun () ->
          do_link_fail a b;
          schedule_at (t_fail +. down_for) (fun () -> do_link_recover a b))
  | Scenario scenario ->
      (* chaos knobs arm at the injection instant, so the warm-up is
         always clean *)
      if scenario.msg_loss > 0. || scenario.msg_dup > 0. then begin
        let chaos_rng = Dessim.Rng.split root_rng ~label:"chaos" in
        schedule_at t_fail (fun () ->
            (* bgpsim-lint: allow D001 — independent per-link set_chaos writes *)
            Hashtbl.iter
              (fun _key link ->
                Netcore.Link.set_chaos link ~loss:scenario.msg_loss
                  ~dup:scenario.msg_dup ~rng:chaos_rng ())
              links)
      end;
      let scenario_rng = Dessim.Rng.split root_rng ~label:"scenario" in
      List.iter
        (fun { Faults.Scenario.at; action } ->
          schedule_at (t_fail +. at) (fun () -> apply_action action))
        (Faults.Scenario.compile scenario ~graph ~rng:scenario_rng));
  run_engine ();
  (match Obs.Bus.counters obs with
  | Some c ->
      Obs.Counters.add_events c (Dessim.Engine.events_executed engine);
      Obs.Counters.observe_paths_interned c ~count:(As_path.Table.size paths)
  | None -> ());
  let termination =
    if !wall_cut then Wall_budget
    else if Dessim.Engine.events_executed engine >= max_events then
      Event_budget
    else
      match Dessim.Engine.next_live_time engine with
      | Some _ -> Vtime_budget
      | None -> Drained
  in
  let converged = warmup_drained && termination = Drained in
  let convergence_end =
    match Netcore.Trace.last_send_at_or_after trace ~from:t_fail with
    | Some time -> time
    | None -> t_fail
  in
  let route_changes =
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + Speaker.route_change_count (speaker i)
    done;
    !total
  in
  {
    trace;
    prefix;
    t_fail;
    convergence_end;
    converged;
    termination;
    warmup_end;
    updates_after_fail =
      Netcore.Trace.count_kind_from trace ~from:t_fail ~kind:Netcore.Trace.Announce;
    withdrawals_after_fail =
      Netcore.Trace.count_kind_from trace ~from:t_fail ~kind:Netcore.Trace.Withdraw;
    events_executed = Dessim.Engine.events_executed engine;
    route_changes;
    paths_interned = As_path.Table.size paths;
    invariant_violations = Faults.Invariant.violations checker;
  }

type event =
  | Tdown
  | Tlong of { a : int; b : int }
  | Tup
  | Trecover of { a : int; b : int }
  | Tshort of { a : int; b : int; down_for : float }
  | Scenario of Faults.Scenario.t

type termination = Network.termination =
  | Drained
  | Event_budget
  | Vtime_budget
  | Wall_budget

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

let termination_name = Network.termination_name

let run ?(params = Netcore.Params.default) ?(config = Config.default)
    ?(max_events = 20_000_000) ?max_vtime ?(invariants = Faults.Invariant.Off)
    ?(obs = Obs.Bus.off) ?profile ~graph ~origin ~event ~seed () =
  let n = Topo.Graph.n_nodes graph in
  if origin < 0 || origin >= n then
    invalid_arg "Routing_sim.run: origin out of range";
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
  let engine = Dessim.Engine.create () in
  let trace = Netcore.Trace.create ~n in
  let fib = Netcore.Trace.fib trace in
  let prefix = Prefix.make ~origin () in
  (* the paper's convergence period ends with the last update sent at
     or after the failure; counting starts once the warm-up has set
     [t_fail] *)
  let t_fail_ref = ref infinity
  and last_send = ref neg_infinity
  and updates = ref 0
  and withdrawals = ref 0 in
  let on_send (msg : Msg.t) =
    let now = Dessim.Engine.now engine in
    if now >= !t_fail_ref then begin
      if now > !last_send then last_send := now;
      match msg with
      | Announce _ -> incr updates
      | Withdraw _ -> incr withdrawals
    end
  in
  let root_rng = Dessim.Rng.create ~seed in
  let proc_rng = Dessim.Rng.split root_rng ~label:"proc" in
  let net =
    Network.create ~params ~config ~invariants ~obs ?profile ~on_send ~engine
      ~graph
      ~origins:[ (origin, prefix) ] ~proc_rng
      ~speaker_rngs:(Network.speaker_rngs root_rng ~n)
      ~on_next_hop_change:(fun node ~prefix:p ~next_hop ->
        assert (Prefix.equal p prefix);
        let time = Dessim.Engine.now engine in
        Netcore.Fib_history.record fib ~time ~node ~next_hop;
        Obs.Bus.fib_change obs ~time ~node ~next_hop)
      ()
  in
  let speaker = Network.speaker net in
  let run_phase () = Network.run_phase ?until:max_vtime net ~max_events in
  (* Phase 1: warm-up convergence.  Inverse events warm up without
     the element they will add: Tup never originates here, Trecover
     starts with its link (and both sessions over it) down. *)
  (match event with
  | Tup -> ()
  | Trecover { a; b } ->
      Netcore.Link.fail (Network.link net a b);
      Speaker.session_down (speaker a) ~peer:b;
      Speaker.session_down (speaker b) ~peer:a;
      Network.originate_all net ~at:0.
  | Tdown | Tlong _ | Tshort _ | Scenario _ ->
      Network.originate_all net ~at:0.);
  let warmup = run_phase () in
  let warmup_end = Dessim.Engine.now engine in
  (* Phase 2: failure injection. *)
  let t_fail = warmup_end +. Network.failure_gap in
  t_fail_ref := t_fail;
  let schedule_at at f =
    let (_ : Dessim.Engine.handle) =
      Dessim.Engine.schedule ~tag:"inject" engine ~at f
    in
    ()
  in
  let link_fail a b = Network.apply net (Faults.Scenario.Link_fail (a, b)) in
  let link_recover a b =
    Network.apply net (Faults.Scenario.Link_recover (a, b))
  in
  (match event with
  | Tdown ->
      schedule_at t_fail (fun () ->
          Speaker.withdraw_local (speaker origin) prefix)
  | Tup ->
      schedule_at t_fail (fun () -> Speaker.originate (speaker origin) prefix)
  | Tlong { a; b } -> schedule_at t_fail (fun () -> link_fail a b)
  | Trecover { a; b } -> schedule_at t_fail (fun () -> link_recover a b)
  | Tshort { a; b; down_for } ->
      schedule_at t_fail (fun () ->
          link_fail a b;
          schedule_at (t_fail +. down_for) (fun () -> link_recover a b))
  | Scenario scenario ->
      (* chaos knobs arm at the injection instant, so the warm-up is
         always clean *)
      if scenario.msg_loss > 0. || scenario.msg_dup > 0. then begin
        let rng = Dessim.Rng.split root_rng ~label:"chaos" in
        schedule_at t_fail (fun () ->
            Network.arm_chaos net ~loss:scenario.msg_loss
              ~dup:scenario.msg_dup ~rng)
      end;
      let scenario_rng = Dessim.Rng.split root_rng ~label:"scenario" in
      List.iter
        (fun { Faults.Scenario.at; action } ->
          schedule_at (t_fail +. at) (fun () -> Network.apply net action))
        (Faults.Scenario.compile scenario ~graph ~rng:scenario_rng));
  let termination = run_phase () in
  Network.report_counters net;
  let route_changes =
    List.fold_left
      (fun total i -> total + Speaker.route_change_count (speaker i))
      0 (Topo.Graph.nodes graph)
  in
  {
    trace;
    prefix;
    t_fail;
    convergence_end = Float.max t_fail !last_send;
    converged = warmup = Drained && termination = Drained;
    termination;
    warmup_end;
    updates_after_fail = !updates;
    withdrawals_after_fail = !withdrawals;
    events_executed = Dessim.Engine.events_executed engine;
    route_changes;
    paths_interned = As_path.Table.size (Network.paths net);
    invariant_violations = Network.violations net;
  }

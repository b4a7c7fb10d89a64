type churn = { period : float; cycles : int; flappers : int list }

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
  trace : Netcore.Trace.t;
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Routing_sim.termination;
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
}

let convergence_time o = o.victim_convergence_end -. o.t_fail

let failure_gap = 10.

let link_key a b = if a < b then (a, b) else (b, a)

let run ?(params = Netcore.Params.default) ?(config = Config.default) ?churn
    ?(max_events = 40_000_000) ?max_vtime
    ?(invariants = Faults.Invariant.Off) ?(obs = Obs.Bus.off) ~graph ~origins
    ~victim ~seed () =
  Netcore.Params.validate params;
  Config.validate config;
  let n = Topo.Graph.n_nodes graph in
  if origins = [] then invalid_arg "Multi_sim.run: no origins";
  List.iter
    (fun o ->
      if o < 0 || o >= n then invalid_arg "Multi_sim.run: origin out of range")
    origins;
  if List.length (List.sort_uniq compare origins) <> List.length origins then
    invalid_arg "Multi_sim.run: duplicate origins";
  if victim < 0 || victim >= List.length origins then
    invalid_arg "Multi_sim.run: victim index out of range";
  (match churn with
  | Some c ->
      if c.period <= 0. then invalid_arg "Multi_sim.run: churn period <= 0";
      if c.cycles < 0 then invalid_arg "Multi_sim.run: negative churn cycles";
      List.iter
        (fun f ->
          if f = victim then
            invalid_arg "Multi_sim.run: the victim cannot flap";
          if f < 0 || f >= List.length origins then
            invalid_arg "Multi_sim.run: flapper index out of range")
        c.flappers
  | None -> ());
  if not (Topo.Graph.is_connected graph) then
    invalid_arg "Multi_sim.run: graph must be connected";
  if max_events <= 0 then
    invalid_arg "Multi_sim.run: max_events must be positive";
  (match max_vtime with
  | Some t when t <= 0. || Float.is_nan t ->
      invalid_arg "Multi_sim.run: max_vtime must be positive"
  | Some _ | None -> ());
  let engine = Dessim.Engine.create () in
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
  let node_procs =
    Array.init n (fun i -> Netcore.Node_proc.create ~obs ~node:i ())
  in
  let speakers = Array.make n None in
  let speaker i =
    match speakers.(i) with Some s -> s | None -> assert false
  in
  (* one arena for the whole run: paths flowing between speakers are
     handles into it, so RIB comparisons are pointer tests *)
  let paths = As_path.Table.create () in
  let prefix_list = List.map (fun origin -> Prefix.make ~origin ()) origins in
  let victim_prefix = List.nth prefix_list victim in
  let fibs =
    List.map (fun p -> (p, Netcore.Fib_history.create ~n)) prefix_list
  in
  (* [fib_of] runs on every next-hop change of every prefix; a linear
     [List.assoc] over the origin list would make each FIB update
     O(origins). *)
  let fib_index = Hashtbl.create (List.length fibs) in
  List.iter (fun (p, fib) -> Hashtbl.add fib_index p fib) fibs;
  let fib_of p = Hashtbl.find fib_index p in
  (* per-prefix message accounting for the victim's convergence *)
  let victim_msgs = ref 0
  and background_msgs = ref 0
  and last_victim_send = ref neg_infinity in
  let t_fail_ref = ref infinity in
  let draw_proc_delay () =
    Dessim.Rng.uniform proc_rng ~lo:params.proc_delay_min
      ~hi:params.proc_delay_max
  in
  let emit_from src ~peer msg =
    let link =
      match Hashtbl.find_opt links (link_key src peer) with
      | Some l -> l
      | None -> invalid_arg "Multi_sim: emit to non-neighbor"
    in
    let now = Dessim.Engine.now engine in
    let withdraw =
      match (msg : Msg.t) with Withdraw _ -> true | Announce _ -> false
    in
    Netcore.Trace.log_send trace ~time:now ~src ~dst:peer ~kind:(Msg.kind msg);
    Obs.Bus.update_sent obs ~time:now ~src ~dst:peer ~withdraw;
    if now >= !t_fail_ref then
      if Prefix.equal (Msg.prefix msg) victim_prefix then begin
        incr victim_msgs;
        if now > !last_victim_send then last_victim_send := now
      end
      else incr background_msgs;
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
    ignore (Netcore.Link.send link ~engine ~from:src ~deliver : bool)
  in
  let on_next_hop_change_for node ~prefix ~next_hop =
    Netcore.Fib_history.record (fib_of prefix)
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
  (* warm-up: all prefixes originate *)
  List.iter2
    (fun origin prefix ->
      let (_ : Dessim.Engine.handle) =
        Dessim.Engine.schedule ~tag:"originate" engine ~at:0. (fun () ->
            Speaker.originate (speaker origin) prefix)
      in
      ())
    origins prefix_list;
  Dessim.Engine.run ?until:max_vtime ~max_events engine;
  let warmup_drained = Dessim.Engine.events_executed engine < max_events in
  let t_fail = Dessim.Engine.now engine +. failure_gap in
  t_fail_ref := t_fail;
  (* the victim's T_down *)
  let victim_origin = List.nth origins victim in
  let (_ : Dessim.Engine.handle) =
    Dessim.Engine.schedule ~tag:"inject" engine ~at:t_fail (fun () ->
        Speaker.withdraw_local (speaker victim_origin) victim_prefix)
  in
  (* background churn *)
  (match churn with
  | None -> ()
  | Some c ->
      List.iter
        (fun flapper ->
          let origin = List.nth origins flapper in
          let prefix = List.nth prefix_list flapper in
          for k = 0 to c.cycles - 1 do
            let base = t_fail +. (float_of_int k *. c.period) in
            let (_ : Dessim.Engine.handle) =
              Dessim.Engine.schedule ~tag:"inject" engine ~at:base (fun () ->
                  Speaker.withdraw_local (speaker origin) prefix)
            in
            let (_ : Dessim.Engine.handle) =
              Dessim.Engine.schedule ~tag:"inject" engine
                ~at:(base +. (c.period /. 2.))
                (fun () -> Speaker.originate (speaker origin) prefix)
            in
            ()
          done)
        c.flappers);
  Dessim.Engine.run ?until:max_vtime ~max_events engine;
  (match Obs.Bus.counters obs with
  | Some c ->
      Obs.Counters.add_events c (Dessim.Engine.events_executed engine);
      Obs.Counters.observe_paths_interned c ~count:(As_path.Table.size paths)
  | None -> ());
  let termination =
    if Dessim.Engine.events_executed engine >= max_events then
      Routing_sim.Event_budget
    else
      match Dessim.Engine.next_live_time engine with
      | Some _ -> Routing_sim.Vtime_budget
      | None -> Routing_sim.Drained
  in
  let converged = warmup_drained && termination = Routing_sim.Drained in
  {
    prefixes = fibs;
    trace;
    t_fail;
    victim = victim_prefix;
    victim_convergence_end =
      (if !last_victim_send > neg_infinity then !last_victim_send else t_fail);
    victim_messages = !victim_msgs;
    background_messages = !background_msgs;
    converged;
    termination;
    invariant_violations = Faults.Invariant.violations checker;
    paths_interned = As_path.Table.size paths;
  }

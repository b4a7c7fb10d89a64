(* Full-mesh multi-prefix workload: N origins, each announcing its own
   prefix over one shared event stream, one path arena and one prefix
   table.  The control flow deliberately mirrors [Multi_sim] step for
   step — same RNG split labels, same scheduling tags, same warm-up /
   failure-gap / accounting structure — so that a run restricted to a
   single origin evolves identically to [Multi_sim] (and hence, via
   the existing differential suite, to [Routing_sim]).  The test wall
   in test/test_mesh.ml enforces that equivalence.

   What it adds over [Multi_sim]:
   - speakers share a [Prefix.Table] (pre-interned in origin order, so
     prefix id = origin index) and run with [prefix_obs], tagging every
     per-prefix trace event with its dense id;
   - per-prefix [Fib_change] events are emitted (Multi_sim cannot: its
     event stream carries no prefix discriminator);
   - a streaming loop scanner per prefix, fed forwarding changes as
     they happen, replaces the post-hoc scan — loop events appear in
     the trace chronologically interleaved with the changes that
     caused them. *)

type churn = Multi_sim.churn = {
  period : float;
  cycles : int;
  flappers : int list;
}

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
  loop_reports : (Prefix.t * Loopscan.Scanner.report) list;
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
  events_executed : int;
}

let convergence_time o = o.victim_convergence_end -. o.t_fail

let failure_gap = 10.

let link_key a b = if a < b then (a, b) else (b, a)

let run ?(params = Netcore.Params.default) ?(config = Config.default) ?churn
    ?origins ?(max_events = 40_000_000) ?max_vtime
    ?(invariants = Faults.Invariant.Off) ?(obs = Obs.Bus.off) ~graph ~victim
    ~seed () =
  Netcore.Params.validate params;
  Config.validate config;
  let n = Topo.Graph.n_nodes graph in
  (* the full mesh by default: every AS originates its own prefix *)
  let origins =
    match origins with Some os -> os | None -> List.init n Fun.id
  in
  if origins = [] then invalid_arg "Mesh_sim.run: no origins";
  List.iter
    (fun o ->
      if o < 0 || o >= n then invalid_arg "Mesh_sim.run: origin out of range")
    origins;
  if List.length (List.sort_uniq compare origins) <> List.length origins then
    invalid_arg "Mesh_sim.run: duplicate origins";
  if victim < 0 || victim >= List.length origins then
    invalid_arg "Mesh_sim.run: victim index out of range";
  (match churn with
  | Some c ->
      if c.period <= 0. then invalid_arg "Mesh_sim.run: churn period <= 0";
      if c.cycles < 0 then invalid_arg "Mesh_sim.run: negative churn cycles";
      List.iter
        (fun f ->
          if f = victim then invalid_arg "Mesh_sim.run: the victim cannot flap";
          if f < 0 || f >= List.length origins then
            invalid_arg "Mesh_sim.run: flapper index out of range")
        c.flappers
  | None -> ());
  if not (Topo.Graph.is_connected graph) then
    invalid_arg "Mesh_sim.run: graph must be connected";
  if max_events <= 0 then invalid_arg "Mesh_sim.run: max_events must be positive";
  (match max_vtime with
  | Some t when t <= 0. || Float.is_nan t ->
      invalid_arg "Mesh_sim.run: max_vtime must be positive"
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
  (* one arena, one prefix table for the whole run: RIB shard keys and
     trace prefix ids agree across every speaker *)
  let paths = As_path.Table.create () in
  let prefixes = Prefix.Table.create ~capacity:(List.length origins) () in
  let prefix_list = List.map (fun origin -> Prefix.make ~origin ()) origins in
  (* pre-intern in origin order: prefix id = index into [origins] *)
  List.iteri
    (fun i p ->
      let id = Prefix.Table.id prefixes p in
      assert (id = i))
    prefix_list;
  let n_prefixes = List.length prefix_list in
  let victim_prefix = List.nth prefix_list victim in
  let fibs =
    List.map (fun p -> (p, Netcore.Fib_history.create ~n)) prefix_list
  in
  let fib_by_id = Array.of_list (List.map snd fibs) in
  let origin_by_id = Array.of_list origins in
  (* streaming scanners, armed at the warm-up boundary (a drained
     warm-up is converged, hence loop-free — the precondition the
     scanner checks) *)
  let streams : Loopscan.Stream.t option array = Array.make n_prefixes None in
  let victim_msgs = ref 0
  and background_msgs = ref 0
  and last_victim_send = ref neg_infinity in
  let t_fail_ref = ref infinity in
  let draw_proc_delay () =
    Dessim.Rng.uniform proc_rng ~lo:params.proc_delay_min
      ~hi:params.proc_delay_max
  in
  let pid_of p = Prefix.Table.id prefixes p in
  let emit_from src ~peer msg =
    let link =
      match Hashtbl.find_opt links (link_key src peer) with
      | Some l -> l
      | None -> invalid_arg "Mesh_sim: emit to non-neighbor"
    in
    let now = Dessim.Engine.now engine in
    let withdraw =
      match (msg : Msg.t) with Withdraw _ -> true | Announce _ -> false
    in
    let pid = pid_of (Msg.prefix msg) in
    Netcore.Trace.log_send trace ~time:now ~src ~dst:peer ~kind:(Msg.kind msg);
    Obs.Bus.update_sent obs ~prefix:pid ~time:now ~src ~dst:peer ~withdraw;
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
          Obs.Bus.update_recv obs ~prefix:pid
            ~time:(Dessim.Engine.now engine)
            ~node:peer ~from:src ~withdraw;
          Speaker.handle_msg (speaker peer) ~from:src msg)
    in
    ignore (Netcore.Link.send link ~engine ~from:src ~deliver : bool)
  in
  let on_next_hop_change_for node ~prefix ~next_hop =
    let now = Dessim.Engine.now engine in
    let pid = pid_of prefix in
    Netcore.Fib_history.record fib_by_id.(pid) ~time:now ~node ~next_hop;
    Obs.Bus.fib_change obs ~prefix:pid ~time:now ~node ~next_hop;
    match streams.(pid) with
    | Some stream ->
        Loopscan.Stream.observe ~obs ~prefix:pid stream ~time:now ~node
          ~next_hop
    | None -> ()
  in
  for i = 0 to n - 1 do
    let rng = Dessim.Rng.split root_rng ~label:("speaker-" ^ string_of_int i) in
    speakers.(i) <-
      Some
        (Speaker.create ~checker ~obs ~prefix_obs:true ~paths ~prefixes ~engine
           ~config ~rng ~node:i
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
  (* arm the streaming scanners on the converged forwarding state; a
     warm-up that blew the budget may hold transient loops the scanner
     rejects, so streaming is skipped (loop_reports stays empty) *)
  if warmup_drained then
    List.iteri
      (fun pid (_p, fib) ->
        streams.(pid) <-
          Some
            (Loopscan.Stream.create ~record:true ~origin:origin_by_id.(pid)
               ~initial:(Netcore.Fib_history.snapshot fib ~before:infinity)
               ()))
      fibs;
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
  let loop_reports =
    List.concat
      (List.mapi
         (fun pid (p, _fib) ->
           match streams.(pid) with
           | Some stream -> [ (p, Loopscan.Stream.report stream) ]
           | None -> [])
         fibs)
  in
  {
    prefixes = fibs;
    loop_reports;
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
    events_executed = Dessim.Engine.events_executed engine;
  }

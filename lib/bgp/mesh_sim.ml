(* Full-mesh multi-prefix workload over {!Network}: N origins, each
   announcing its own prefix over one shared event stream, one path
   arena and one prefix table.  With a single origin the run is
   [Routing_sim]'s T_down (same RNG splits, same scheduling tags), which
   test/test_differential.ml checks change for change.

   On top of the network:
   - speakers share a [Prefix.Table] (pre-interned in origin order, so
     prefix id = origin index) and tag every per-prefix trace event with
     its dense id;
   - a loop tracker per prefix ([Loopscan.Scanner]), fed forwarding
     changes as they happen, replaces the post-hoc scan — loop events
     appear in the trace chronologically interleaved with the changes
     that caused them. *)

type churn = { period : float; cycles : int; flappers : int list }

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
  loop_reports : (Prefix.t * Loopscan.Scanner.report) list;
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Network.termination;
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
  events_executed : int;
}

let convergence_time o = o.victim_convergence_end -. o.t_fail

let run ?params ?config ?churn ?origins ?(max_events = 40_000_000) ?max_vtime
    ?invariants ?(obs = Obs.Bus.off) ?profile ~graph ~victim ~seed () =
  let n = Topo.Graph.n_nodes graph in
  (* the full mesh by default: every AS originates its own prefix *)
  let origins =
    match origins with Some os -> os | None -> List.init n Fun.id
  in
  let n_prefixes = List.length origins in
  if origins = [] then invalid_arg "Mesh_sim.run: no origins";
  List.iter
    (fun o ->
      if o < 0 || o >= n then invalid_arg "Mesh_sim.run: origin out of range")
    origins;
  if List.length (List.sort_uniq compare origins) <> n_prefixes then
    invalid_arg "Mesh_sim.run: duplicate origins";
  if victim < 0 || victim >= n_prefixes then
    invalid_arg "Mesh_sim.run: victim index out of range";
  (match churn with
  | Some c ->
      if c.period <= 0. then invalid_arg "Mesh_sim.run: churn period <= 0";
      if c.cycles < 0 then invalid_arg "Mesh_sim.run: negative churn cycles";
      List.iter
        (fun f ->
          if f = victim then invalid_arg "Mesh_sim.run: the victim cannot flap";
          if f < 0 || f >= n_prefixes then
            invalid_arg "Mesh_sim.run: flapper index out of range")
        c.flappers
  | None -> ());
  let engine = Dessim.Engine.create () in
  (* one prefix table for the whole run, pre-interned in origin order:
     prefix id = index into [origins], in every speaker's destination
     array and MRAI keys and in trace events alike *)
  let table = Prefix.Table.create ~capacity:n_prefixes () in
  let prefix_list = List.map (fun origin -> Prefix.make ~origin ()) origins in
  List.iteri
    (fun i p ->
      let id = Prefix.Table.id table p in
      assert (id = i))
    prefix_list;
  let victim_prefix = List.nth prefix_list victim in
  let fibs =
    List.map (fun p -> (p, Netcore.Fib_history.create ~n)) prefix_list
  in
  let fib_by_id = Array.of_list (List.map snd fibs) in
  (* loop trackers, armed at the warm-up boundary (a drained warm-up is
     converged, hence loop-free — the precondition the tracker checks) *)
  let trackers : Loopscan.Scanner.t option array =
    Array.make n_prefixes None
  in
  let victim_msgs = ref 0
  and background_msgs = ref 0
  and last_victim_send = ref neg_infinity in
  let t_fail_ref = ref infinity in
  let on_send msg =
    let now = Dessim.Engine.now engine in
    if now >= !t_fail_ref then
      if Prefix.equal (Msg.prefix msg) victim_prefix then begin
        incr victim_msgs;
        if now > !last_victim_send then last_victim_send := now
      end
      else incr background_msgs
  in
  let on_next_hop_change node ~prefix ~next_hop =
    let now = Dessim.Engine.now engine in
    let pid = Prefix.Table.id table prefix in
    Netcore.Fib_history.record fib_by_id.(pid) ~time:now ~node ~next_hop;
    Obs.Bus.fib_change obs ~prefix:pid ~time:now ~node ~next_hop;
    match trackers.(pid) with
    | Some tracker ->
        Loopscan.Scanner.observe ~obs ~prefix:pid tracker ~time:now ~node
          ~next_hop
    | None -> ()
  in
  let root_rng = Dessim.Rng.create ~seed in
  let proc_rng = Dessim.Rng.split root_rng ~label:"proc" in
  let net =
    Network.create ?params ?config ?invariants ~obs ?profile ~prefixes:table
      ~on_send ~engine ~graph
      ~origins:(List.combine origins prefix_list)
      ~proc_rng
      ~speaker_rngs:(Network.speaker_rngs root_rng ~n)
      ~on_next_hop_change ()
  in
  let speaker = Network.speaker net in
  let run_phase () = Network.run_phase ?until:max_vtime net ~max_events in
  (* warm-up: all prefixes originate *)
  Network.originate_all net ~at:0.;
  let warmup = run_phase () in
  (* arm the loop trackers on the converged forwarding state; a warm-up
     that did not drain may hold transient loops the tracker rejects,
     so tracking is skipped (loop_reports stays empty) *)
  if warmup = Network.Drained then
    List.iteri
      (fun pid (origin, (_p, fib)) ->
        trackers.(pid) <-
          Some
            (Loopscan.Scanner.create ~record:true ~origin
               ~initial:(Netcore.Fib_history.snapshot fib ~before:infinity)
               ()))
      (List.combine origins fibs);
  let t_fail = Dessim.Engine.now engine +. Network.failure_gap in
  t_fail_ref := t_fail;
  let inject at f =
    let (_ : Dessim.Engine.handle) =
      Dessim.Engine.schedule ~tag:"inject" engine ~at f
    in
    ()
  in
  (* the victim's T_down *)
  let victim_origin = List.nth origins victim in
  inject t_fail (fun () ->
      Speaker.withdraw_local (speaker victim_origin) victim_prefix);
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
            inject base (fun () ->
                Speaker.withdraw_local (speaker origin) prefix);
            inject (base +. (c.period /. 2.)) (fun () ->
                Speaker.originate (speaker origin) prefix)
          done)
        c.flappers);
  let termination = run_phase () in
  Network.report_counters net;
  let loop_reports =
    List.concat
      (List.mapi
         (fun pid (p, _fib) ->
           match trackers.(pid) with
           | Some tracker -> [ (p, Loopscan.Scanner.report tracker) ]
           | None -> [])
         fibs)
  in
  {
    prefixes = fibs;
    loop_reports;
    t_fail;
    victim = victim_prefix;
    victim_convergence_end =
      (if !last_victim_send > neg_infinity then !last_victim_send else t_fail);
    victim_messages = !victim_msgs;
    background_messages = !background_msgs;
    converged = warmup = Network.Drained && termination = Network.Drained;
    termination;
    invariant_violations = Network.violations net;
    paths_interned = As_path.Table.size (Network.paths net);
    events_executed = Dessim.Engine.events_executed engine;
  }

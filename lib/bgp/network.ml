(* The network model every simulator shares: links, per-router
   processing queues and speakers on one engine, the send/deliver path
   between them, the fault primitives and the phase runner.  Every
   delivered message draws its processing delay from the one [proc]
   stream, so the scripts over this module replay the same RNG stream
   and event schedule. *)

type termination = Drained | Event_budget | Vtime_budget | Wall_budget

let termination_name = function
  | Drained -> "drained"
  | Event_budget -> "event-budget"
  | Vtime_budget -> "vtime-budget"
  | Wall_budget -> "wall-budget"

let failure_gap = 10.

let speaker_rngs root ~n =
  Array.init n (fun i ->
      Dessim.Rng.split root ~label:("speaker-" ^ string_of_int i))

type t = {
  engine : Dessim.Engine.t;
  params : Netcore.Params.t;
  checker : Faults.Invariant.t;
  obs : Obs.Bus.t;
  prefixes : Prefix.Table.t option;
  on_send : (Msg.t -> unit) option;
  proc_rng : Dessim.Rng.t;
  origins : (int * Prefix.t) list;
  links : Netcore.Link.t array;  (* edge order *)
  adj : (int * Netcore.Link.t) array array;  (* per node, by neighbour *)
  mutable procs : Msg.t Netcore.Node_proc.t array;
  mutable speakers : Speaker.t array;
  mutable paths : As_path.Table.t;
}

let speaker t i = t.speakers.(i)
let paths t = t.paths
let violations t = Faults.Invariant.violations t.checker

(* Binary search over the node's sorted neighbours: the per-message
   lookup neither allocates nor hashes. *)
let link t a b =
  let adj = t.adj.(a) in
  let rec find lo hi =
    if lo >= hi then
      invalid_arg (Printf.sprintf "Network: no link (%d,%d)" a b)
    else
      let mid = (lo + hi) / 2 in
      let peer, l = adj.(mid) in
      if peer = b then l
      else if peer < b then find (mid + 1) hi
      else find lo mid
  in
  find 0 (Array.length adj)

(* [Topo.Graph.edges] is sorted, so the endpoints come out sorted too. *)
let links_down t =
  Array.of_list
    (List.filter_map
       (fun l ->
         if Netcore.Link.is_up l then None else Some (Netcore.Link.endpoints l))
       (Array.to_list t.links))

let arm_chaos t ~loss ~dup ~rng =
  Array.iter (fun l -> Netcore.Link.set_chaos l ~loss ~dup ~rng ()) t.links

let set_path_table t table =
  Array.iter (fun s -> Speaker.set_path_table s table) t.speakers;
  t.paths <- table

(* Only a mesh run (a shared prefix table) with the bus on tags its
   update events, and only it pays for the id lookup. *)
let prefix_tag t msg =
  match t.prefixes with
  | Some table when Obs.Bus.enabled t.obs ->
      Some (Prefix.Table.id table (Msg.prefix msg))
  | Some _ | None -> None

let is_withdraw (msg : Msg.t) =
  match msg with Withdraw _ -> true | Announce _ -> false

let emit t src ~peer msg =
  let link = link t src peer in
  let engine = t.engine in
  let now = Dessim.Engine.now engine in
  Obs.Bus.update_sent ?prefix:(prefix_tag t msg) t.obs ~time:now ~src
    ~dst:peer ~withdraw:(is_withdraw msg);
  (match t.on_send with Some f -> f msg | None -> ());
  let deliver () =
    let delay =
      Dessim.Rng.uniform t.proc_rng ~lo:t.params.proc_delay_min
        ~hi:t.params.proc_delay_max
    in
    Netcore.Node_proc.submit t.procs.(peer) ~delay ~from:src msg
  in
  (* A send onto a dead link is dropped silently, like packets into a
     torn-down TCP session. *)
  ignore (Netcore.Link.send link ~engine ~from:src ~deliver : bool)

(* Router [node]'s protocol handler, run when its CPU finishes a
   message from [from]. *)
let process t node ~from msg =
  let now = Dessim.Engine.now t.engine in
  Obs.Bus.update_recv ?prefix:(prefix_tag t msg) t.obs ~time:now ~node ~from
    ~withdraw:(is_withdraw msg);
  Speaker.handle_msg t.speakers.(node) ~from msg

let create ?(params = Netcore.Params.default) ?(config = Config.default)
    ?(invariants = Faults.Invariant.Off) ?(obs = Obs.Bus.off) ?profile
    ?prefixes ?on_send ~engine ~graph ~origins ~proc_rng ~speaker_rngs
    ~on_next_hop_change () =
  Netcore.Params.validate params;
  Config.validate config;
  if not (Topo.Graph.is_connected graph) then
    invalid_arg "Network: graph must be connected";
  let n = Topo.Graph.n_nodes graph in
  Option.iter
    (fun p -> Dessim.Engine.set_step_profiler engine (Obs.Profile.step p))
    profile;
  let checker = Faults.Invariant.create invariants in
  if Faults.Invariant.enabled checker then
    Dessim.Engine.set_clock_monitor engine (fun ~old_time ~new_time ->
        if new_time < old_time then
          Faults.Invariant.report checker Faults.Invariant.Clock_regression
            ~detail:(fun () ->
              Printf.sprintf "event at %g fired with clock at %g" new_time
                old_time));
  let links =
    Array.of_list
      (List.map
         (fun (a, b) ->
           let link = Netcore.Link.create ~a ~b ~delay:params.link_delay in
           if Faults.Invariant.enabled checker then
             Netcore.Link.attach_checker link checker;
           if Obs.Bus.enabled obs then Netcore.Link.attach_obs link obs;
           link)
         (Topo.Graph.edges graph))
  in
  let adj = Array.make n [] in
  Array.iter
    (fun l ->
      let a, b = Netcore.Link.endpoints l in
      adj.(a) <- (b, l) :: adj.(a);
      adj.(b) <- (a, l) :: adj.(b))
    links;
  let by_peer (p, _) (q, _) = Int.compare p q in
  let t =
    {
      engine;
      params;
      checker;
      obs;
      prefixes;
      on_send;
      proc_rng;
      origins;
      links;
      adj = Array.map (fun l -> Array.of_list (List.sort by_peer l)) adj;
      procs = [||];
      speakers = [||];
      paths = As_path.Table.create ();
    }
  in
  t.procs <-
    Array.init n (fun i ->
        Netcore.Node_proc.create ~obs ~node:i ~engine ~process:(process t i)
          ());
  t.speakers <-
    Array.init n (fun i ->
        Speaker.create ~checker ~obs ~paths:t.paths ?prefixes ~engine ~config
          ~rng:speaker_rngs.(i) ~node:i ~peers:(Topo.Graph.neighbors graph i)
          ~emit:(emit t i) ~on_next_hop_change:(on_next_hop_change i) ());
  t

let originate_all t ~at =
  List.iter
    (fun (origin, prefix) ->
      let (_ : Dessim.Engine.handle) =
        Dessim.Engine.schedule ~tag:"originate" t.engine ~at (fun () ->
            Speaker.originate t.speakers.(origin) prefix)
      in
      ())
    t.origins

(* --- faults --- *)

let set_link t a b ~up =
  let l = link t a b in
  if Netcore.Link.is_up l <> up then begin
    if up then Netcore.Link.restore l else Netcore.Link.fail l;
    let time = Dessim.Engine.now t.engine in
    Obs.Bus.link_state t.obs ~time ~a ~b ~up;
    let session = if up then Speaker.session_up else Speaker.session_down in
    session t.speakers.(a) ~peer:b;
    session t.speakers.(b) ~peer:a
  end

let live_neighbors t v =
  List.filter_map
    (fun (u, l) -> if Netcore.Link.is_up l then Some u else None)
    (Array.to_list t.adj.(v))

let crash t v =
  let s = t.speakers.(v) in
  if Speaker.alive s then begin
    Speaker.crash s;
    (* sessions die with the node; the links themselves stay up *)
    List.iter
      (fun u -> Speaker.session_down t.speakers.(u) ~peer:v)
      (live_neighbors t v)
  end

let restart t v =
  let s = t.speakers.(v) in
  if not (Speaker.alive s) then begin
    Speaker.restart s;
    List.iter
      (fun u ->
        let peer = t.speakers.(u) in
        if Speaker.alive peer then begin
          Speaker.session_up s ~peer:u;
          Speaker.session_up peer ~peer:v
        end)
      (live_neighbors t v);
    (* the prefix survives in the router's configuration, not in the
       lost RIB *)
    match List.assoc_opt v t.origins with
    | Some prefix -> Speaker.originate s prefix
    | None -> ()
  end

let session_reset t a b =
  if Netcore.Link.is_up (link t a b) then begin
    let sa = t.speakers.(a) and sb = t.speakers.(b) in
    Speaker.session_down sa ~peer:b;
    Speaker.session_down sb ~peer:a;
    Speaker.session_up sa ~peer:b;
    Speaker.session_up sb ~peer:a
  end

let apply t = function
  | Faults.Scenario.Link_fail (a, b) -> set_link t a b ~up:false
  | Faults.Scenario.Link_recover (a, b) -> set_link t a b ~up:true
  | Faults.Scenario.Node_crash v -> crash t v
  | Faults.Scenario.Node_restart v -> restart t v
  | Faults.Scenario.Session_reset (a, b) -> session_reset t a b

(* --- running --- *)

let chunk = 65_536

let run_phase ?until ?watchdog t ~max_events =
  if max_events <= 0 then invalid_arg "Network: max_events must be positive";
  (match until with
  | Some u when u <= 0. || Float.is_nan u ->
      invalid_arg "Network: max_vtime must be positive"
  | Some _ | None -> ());
  let engine = t.engine in
  let rec go () =
    match Dessim.Engine.next_live_time engine with
    | None -> Drained
    | Some next ->
        let executed = Dessim.Engine.events_executed engine in
        let beyond = match until with Some u -> next > u | None -> false in
        let expired =
          match watchdog with
          | Some wd -> Faults.Watchdog.expired wd
          | None -> false
        in
        if executed >= max_events then Event_budget
        else if beyond then Vtime_budget
        else if expired then Wall_budget
        else begin
          Dessim.Engine.run ?until
            ~max_events:(Stdlib.min max_events (executed + chunk))
            engine;
          go ()
        end
  in
  go ()

let report_counters t =
  match Obs.Bus.counters t.obs with
  | Some c ->
      Obs.Counters.add_events c (Dessim.Engine.events_executed t.engine);
      Obs.Counters.observe_paths_interned c ~count:(As_path.Table.size t.paths)
  | None -> ()

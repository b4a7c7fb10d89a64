type best_route = { learned_from : int option; path : As_path.t }

(* Per-destination state.  The Adj-RIB-In, the Adj-RIB-Out and the
   damping states are arrays indexed by peer slot ([Peer_table]), with
   [As_path.absent] or [None] where a peer has no entry; a new slot
   grows each by one. *)
type dest_state = {
  prefix : Prefix.t;
  pid : int;  (* dense id in the speaker's prefix table *)
  mutable local : bool;
  mutable best : best_route option;
  mutable exported : As_path.t;
      (* the best path with this AS prepended, extended the first time
         an announcement needs it; [As_path.absent] until then and
         again whenever [best] changes *)
  mutable rib_in : As_path.t array;  (* by slot: latest path from the peer *)
  mutable advertised : As_path.t array;
      (* by slot: what the peer currently holds from us *)
  mutable damp : Damping.t option array;
      (* by slot: flap state, created only when damping is configured *)
  mutable reuse_timer : Dessim.Engine.handle option;
}

type t = {
  node : int;
  engine : Dessim.Engine.t;
  config : Config.t;
  rng : Dessim.Rng.t;
  checker : Faults.Invariant.t;
  obs : Obs.Bus.t;
  prefix_obs : bool;
  mutable paths : As_path.Table.t;
  prefixes : Prefix.Table.t;
  live_peers : Peer_table.t;
  mutable alive : bool;
  emit : peer:int -> Msg.t -> unit;
  on_next_hop_change : prefix:Prefix.t -> next_hop:int option -> unit;
  mutable outs : Msg.t Mrai.t array;
      (* by slot: one batched limiter per peer, keyed by prefix id, so a
         speaker carrying N prefixes schedules one timer per peer *)
  mutable dests : dest_state option array;  (* by prefix id *)
  mutable dests_rev : dest_state list;  (* creation order, newest first *)
  mutable route_changes : int;
}

let node t = t.node

let peers t = Peer_table.to_list t.live_peers

let obs_prefix t (st : dest_state) =
  if t.prefix_obs then Some st.pid else None

(* Destinations in creation order — deterministic under the engine's
   deterministic event order, and the order every per-destination walk
   (session table dumps, teardown re-decisions) emits in. *)
let iter_dests t f = List.iter f (List.rev t.dests_rev)

let find_pid t pid =
  if pid < Array.length t.dests then t.dests.(pid) else None

let dest_state t prefix =
  let pid = Prefix.Table.id t.prefixes prefix in
  match find_pid t pid with
  | Some st -> st
  | None ->
      let slots = Peer_table.n_slots t.live_peers in
      let st =
        {
          prefix;
          pid;
          local = false;
          best = None;
          exported = As_path.absent;
          rib_in = Array.make slots As_path.absent;
          advertised = Array.make slots As_path.absent;
          damp = Array.make slots None;
          reuse_timer = None;
        }
      in
      let n = Array.length t.dests in
      if pid >= n then begin
        let dests = Array.make (Stdlib.max (pid + 1) (2 * n)) None in
        Array.blit t.dests 0 dests 0 n;
        t.dests <- dests
      end;
      t.dests.(pid) <- Some st;
      t.dests_rev <- st :: t.dests_rev;
      st

let draw_mrai_interval t () =
  let m = t.config.mrai in
  if m <= 0. then 0.
  else Dessim.Rng.uniform t.rng ~lo:(t.config.mrai_jitter_min *. m) ~hi:m

(* The limiter toward the peer in [slot]; its keys are prefix ids, so
   [transmit] finds the destination by index. *)
let create_out t slot =
  let peer = Peer_table.peer_of_slot t.live_peers slot in
  let transmit ~key msg =
    (* Duplicate suppression: skip messages that would not change what
       the peer holds from us for this prefix.  A suppressed message
       must not (re)start the MRAI timer.  Only a synced destination
       offers, so [key] names a live one. *)
    let st = Option.get (find_pid t key) in
    let prev = st.advertised.(slot) in
    match (msg : Msg.t) with
    | Announce { path; _ } ->
        if prev != As_path.absent && As_path.equal prev path then false
        else begin
          st.advertised.(slot) <- path;
          t.emit ~peer msg;
          true
        end
    | Withdraw _ ->
        if prev != As_path.absent then begin
          st.advertised.(slot) <- As_path.absent;
          t.emit ~peer msg;
          true
        end
        else false
  in
  let on_fire =
    (* Only pay for the closure when the bus is live. *)
    if Obs.Bus.enabled t.obs then
      Some
        (fun () ->
          Obs.Bus.mrai_fire t.obs
            ~time:(Dessim.Engine.now t.engine)
            ~node:t.node ~peer)
    else None
  in
  Mrai.create ~mode:t.config.rate_limiter ?on_fire ~engine:t.engine
    ~draw_interval:(draw_mrai_interval t) ~transmit ()

let grow empty arr n =
  Array.append arr (Array.make (n - Array.length arr) empty)

(* Give every slot the peer table has allocated its limiter and its
   cell in each destination's arrays. *)
let sync_slots t =
  let have = Array.length t.outs
  and slots = Peer_table.n_slots t.live_peers in
  if slots > have then begin
    t.outs <-
      Array.append t.outs
        (Array.init (slots - have) (fun i -> create_out t (have + i)));
    iter_dests t (fun st ->
        st.rib_in <- grow As_path.absent st.rib_in slots;
        st.advertised <- grow As_path.absent st.advertised slots;
        st.damp <- grow None st.damp slots)
  end

let create ?(checker = Faults.Invariant.off) ?(obs = Obs.Bus.off) ?paths
    ?prefixes ~engine ~config ~rng ~node ~peers ~emit ~on_next_hop_change () =
  Config.validate config;
  let t =
    {
      node;
      engine;
      config;
      rng;
      checker;
      obs;
      prefix_obs = Option.is_some prefixes;
      paths = (match paths with Some t -> t | None -> As_path.default_table ());
      prefixes =
        (match prefixes with Some t -> t | None -> Prefix.Table.create ());
      live_peers = Peer_table.create peers;
      alive = true;
      emit;
      on_next_hop_change;
      outs = [||];
      dests = [||];
      dests_rev = [];
      route_changes = 0;
    }
  in
  sync_slots t;
  t

(* --- route-flap damping hooks --- *)

let damp_state t st slot =
  match st.damp.(slot) with
  | Some d -> d
  | None ->
      let d =
        match t.config.damping with
        | Some params -> Damping.create params
        | None -> assert false (* only called when damping is on *)
      in
      st.damp.(slot) <- Some d;
      d

let slot_suppressed t st slot =
  match st.damp.(slot) with
  | None -> false
  | Some d -> Damping.suppressed d ~now:(Dessim.Engine.now t.engine)

(* --- decision process --- *)

(* The Adj-RIB-In is read per live peer, ascending by id.  Decisions
   cannot change from the ordering: each rib-in path starts with the
   announcing peer's AS, so the policy preference is a strict total
   order over candidates from distinct peers.  When the winner is the
   current best route, that route itself is returned, so a decision
   that changes nothing allocates nothing. *)
let best_candidate t st =
  if st.local then
    match st.best with
    | Some { learned_from = None; _ } as cur -> cur
    | Some _ | None -> Some { learned_from = None; path = As_path.empty }
  else begin
    let policy = t.config.policy and self = t.node and peers = t.live_peers in
    let best_peer = ref (-1) and best_path = ref As_path.absent in
    for i = 0 to Peer_table.cardinal peers - 1 do
      let slot = Peer_table.slot_at peers i in
      let path = st.rib_in.(slot) in
      if path != As_path.absent then begin
        let peer = Peer_table.peer_of_slot peers slot in
        if
          policy.Policy.import_ok ~self peer path
          && (not (slot_suppressed t st slot))
          && (!best_path == As_path.absent
             || policy.Policy.prefer ~self peer path !best_peer !best_path < 0)
        then begin
          best_peer := peer;
          best_path := path
        end
      end
    done;
    if !best_path == As_path.absent then None
    else
      match st.best with
      | Some { learned_from = Some peer; path } as cur
        when peer = !best_peer && As_path.equal path !best_path ->
          cur
      | Some _ | None ->
          Some { learned_from = Some !best_peer; path = !best_path }
  end

let next_hop_of = function
  | None -> None
  | Some { learned_from; _ } -> learned_from

let equal_best a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
      x.learned_from = y.learned_from && As_path.equal x.path y.path
  | None, Some _ | Some _, None -> false

(* What [peer] should hold from us: our best path with ourselves
   prepended, unless policy filters it or SSLD knows the peer would
   discard it (its own AS is on the path) — in which case the peer
   should hold nothing ([As_path.absent]), conveyed by an immediate
   withdrawal.  The prepended path is the same for every peer, so it is
   extended once per best route: the first extension interns it, as
   the first of the per-peer extensions did. *)
let desired_announcement t st peer =
  match st.best with
  | None -> As_path.absent
  | Some b ->
      if
        not
          (t.config.policy.Policy.export_ok ~self:t.node ~to_peer:peer
             ~learned_from:b.learned_from)
      then As_path.absent
      else begin
        if st.exported == As_path.absent then
          st.exported <- As_path.extend ~table:t.paths t.node b.path;
        let full = st.exported in
        if t.config.ssld && As_path.contains full peer then As_path.absent
        else full
      end

let sync_peer t st slot peer =
  let mrai = t.outs.(slot) in
  let prefix = st.prefix in
  let key = st.pid in
  let full = desired_announcement t st peer in
  if full != As_path.absent then begin
    (* Ghost Flushing: if the announcement is stuck behind this
       prefix's MRAI interval and the path got longer than what the
       peer holds, flush the stale (ghost) route with an immediate
       withdrawal; the announcement itself still goes out on expiry. *)
    let prev = st.advertised.(slot) in
    let worse_than_advertised =
      prev != As_path.absent && As_path.length full > As_path.length prev
    in
    if
      t.config.ghost_flushing
      && Mrai.key_running mrai key
      && worse_than_advertised
    then
      Mrai.send_now ~key mrai ~keep_pending:true (Msg.Withdraw { prefix });
    Mrai.offer ~key mrai (Msg.Announce { prefix; path = full })
  end
  else
    let withdrawal = Msg.Withdraw { prefix } in
    if t.config.wrate then Mrai.offer ~key mrai withdrawal
    else Mrai.send_now ~key mrai ~keep_pending:false withdrawal

(* Runtime invariants of the decision process, re-verified after every
   mutation when a checker is armed: the Loc-RIB best is always drawn
   from the Adj-RIB-In (or is the local route), and its next hop is a
   live peer. *)
let check_rib_coherence t st =
  if Faults.Invariant.enabled t.checker then
    match st.best with
    | None -> ()
    | Some { learned_from = None; _ } ->
        if not st.local then
          Faults.Invariant.report t.checker Faults.Invariant.Rib_incoherence
            ~detail:(fun () ->
              Printf.sprintf "node %d: best is local but no local route"
                t.node)
    | Some { learned_from = Some peer; path } ->
        let slot = Peer_table.slot t.live_peers peer in
        if not (slot >= 0 && As_path.equal st.rib_in.(slot) path) then
          Faults.Invariant.report t.checker Faults.Invariant.Rib_incoherence
            ~detail:(fun () ->
              Printf.sprintf
                "node %d: Loc-RIB best via peer %d is not the Adj-RIB-In \
                 entry"
                t.node peer);
        if not (Peer_table.mem t.live_peers peer) then
          Faults.Invariant.report t.checker Faults.Invariant.Dead_next_hop
            ~detail:(fun () ->
              Printf.sprintf "node %d: next hop %d is not a live peer" t.node
                peer)

let recompute t st =
  Obs.Bus.decision_run t.obs ~node:t.node;
  let new_best = best_candidate t st in
  (if not (equal_best st.best new_best) then begin
    let old_nh = next_hop_of st.best and new_nh = next_hop_of new_best in
    st.best <- new_best;
    st.exported <- As_path.absent;
    t.route_changes <- t.route_changes + 1;
    if old_nh <> new_nh then
      t.on_next_hop_change ~prefix:st.prefix ~next_hop:new_nh;
    Peer_table.iter_slots (sync_peer t st) t.live_peers
  end);
  check_rib_coherence t st

(* --- Assertion enhancement (Pei et al.): when [speaker] declares its
   path to be [latest] (None = no route), any entry from another peer
   that routes through [speaker] with a different sub-path from
   [speaker] onward is stale and removed. --- *)
let assertion_purge t st ~speaker ~latest =
  Peer_table.iter_slots
    (fun slot peer ->
      let path = st.rib_in.(slot) in
      if peer <> speaker && path != As_path.absent then
        match As_path.suffix_from ~table:t.paths path speaker with
        | None -> ()
        | Some suffix -> (
            match latest with
            | None -> st.rib_in.(slot) <- As_path.absent
            | Some declared ->
                if not (As_path.equal suffix declared) then
                  st.rib_in.(slot) <- As_path.absent))
    t.live_peers

(* Suppressed routes re-enter the decision on penalty decay, not on any
   message: keep one timer per destination armed at the earliest reuse
   instant among suppressed rib-in entries. *)
let rec schedule_reuse t st =
  match t.config.damping with
  | None -> ()
  | Some _ ->
      let now = Dessim.Engine.now t.engine in
      let earliest =
        Seq.fold_left
          (fun acc (slot, d) ->
            match d with
            | Some d when st.rib_in.(slot) != As_path.absent -> (
                match Damping.reuse_at d ~now with
                | None -> acc
                | Some time -> (
                    match acc with
                    | None -> Some time
                    | Some best -> Some (Float.min best time)))
            | Some _ | None -> acc)
          None (Array.to_seqi st.damp)
      in
      Option.iter Dessim.Engine.cancel st.reuse_timer;
      st.reuse_timer <-
        Option.map
          (fun time ->
            Dessim.Engine.schedule ~tag:"damp-reuse" t.engine
              ~at:(Float.max time now) (fun () ->
                st.reuse_timer <- None;
                recompute t st;
                schedule_reuse t st))
          earliest

(* --- external events --- *)

let originate t prefix =
  if t.alive then
    let st = dest_state t prefix in
    if not st.local then begin
      Obs.Bus.originate t.obs
        ?prefix:(obs_prefix t st)
        ~time:(Dessim.Engine.now t.engine)
        ~node:t.node;
      st.local <- true;
      recompute t st
    end

let withdraw_local t prefix =
  if t.alive then
    let st = dest_state t prefix in
    if st.local then begin
      Obs.Bus.local_withdraw t.obs
        ?prefix:(obs_prefix t st)
        ~time:(Dessim.Engine.now t.engine)
        ~node:t.node;
      st.local <- false;
      recompute t st
    end

(* Poison-reverse soundness: after any Adj-RIB-In mutation for [from],
   the stored entry must not contain this AS.  True by construction
   (the replace above filters such paths); the checker re-verifies it
   at runtime. *)
let check_poison_reverse t st ~slot ~from =
  if
    Faults.Invariant.enabled t.checker
    && As_path.contains st.rib_in.(slot) t.node
  then
    Faults.Invariant.report t.checker Faults.Invariant.Poison_reverse
      ~detail:(fun () ->
        Printf.sprintf
          "node %d: Adj-RIB-In entry from peer %d routes through self" t.node
          from)

let handle_msg t ~from msg =
  (* A message can still be sitting in the node's processing queue when
     the session it arrived over dies (or the node itself crashes); by
     then its content is void (the peer's routes were flushed at
     teardown and no withdrawal will ever follow), so late deliveries
     from dead peers — or to dead nodes — are dropped. *)
  let slot = Peer_table.live_slot t.live_peers from in
  if not (t.alive && slot >= 0) then ()
  else
    match (msg : Msg.t) with
    | Announce { prefix; path } ->
        let st = dest_state t prefix in
        if t.config.damping <> None then
          Damping.on_update (damp_state t st slot)
            ~now:(Dessim.Engine.now t.engine);
        (* Path-based poison reverse: a path through us is unusable; per
           the implicit-withdraw rule it still replaces (hence removes)
           the peer's previous entry. *)
        st.rib_in.(slot) <-
          (if As_path.contains path t.node then As_path.absent else path);
        if t.config.assertion then
          assertion_purge t st ~speaker:from ~latest:(Some path);
        check_poison_reverse t st ~slot ~from;
        recompute t st;
        schedule_reuse t st
    | Withdraw { prefix } ->
        let st = dest_state t prefix in
        if t.config.damping <> None then
          Damping.on_withdrawal (damp_state t st slot)
            ~now:(Dessim.Engine.now t.engine);
        st.rib_in.(slot) <- As_path.absent;
        if t.config.assertion then
          assertion_purge t st ~speaker:from ~latest:None;
        recompute t st;
        schedule_reuse t st

let session_down t ~peer =
  let slot = Peer_table.live_slot t.live_peers peer in
  if slot >= 0 then begin
    Peer_table.remove t.live_peers peer;
    Mrai.reset t.outs.(slot);
    iter_dests t (fun st ->
        st.rib_in.(slot) <- As_path.absent;
        st.damp.(slot) <- None;
        st.advertised.(slot) <- As_path.absent;
        recompute t st;
        schedule_reuse t st)
  end

let session_up t ~peer =
  if t.alive && not (Peer_table.mem t.live_peers peer) then begin
    Peer_table.add t.live_peers peer;
    sync_slots t;
    (* table dump: the fresh peer hears every best route we hold *)
    let slot = Peer_table.slot t.live_peers peer in
    iter_dests t (fun st -> sync_peer t st slot peer)
  end

(* --- crash / restart with RIB loss --- *)

let alive t = t.alive

let crash t =
  if t.alive then begin
    t.alive <- false;
    Peer_table.clear t.live_peers;
    (* all protocol state is lost: pending MRAI transmissions and
       damping reuse timers must not fire for a dead node *)
    Array.iter Mrai.reset t.outs;
    iter_dests t (fun st ->
        Option.iter Dessim.Engine.cancel st.reuse_timer;
        (* the FIB empties with the RIB *)
        if st.best <> None then begin
          t.route_changes <- t.route_changes + 1;
          if next_hop_of st.best <> None then
            t.on_next_hop_change ~prefix:st.prefix ~next_hop:None
        end);
    t.dests <- [||];
    t.dests_rev <- []
  end

let restart t =
  (* The node comes back with empty RIBs and no sessions; the
     surrounding simulation re-establishes sessions (session_up on both
     ends per surviving link) and re-originates local prefixes. *)
  if not t.alive then t.alive <- true

(* --- inspection --- *)

(* A slot array's entries as (peer, path), ascending by peer.  Entries
   exist only for live peers: session teardown clears both arrays. *)
let slot_entries t rib =
  let acc = ref [] in
  Peer_table.iter_slots
    (fun slot peer ->
      let path = rib.(slot) in
      if path != As_path.absent then acc := (peer, path) :: !acc)
    t.live_peers;
  List.rev !acc

let find_dest t prefix =
  match Prefix.Table.find t.prefixes prefix with
  | None -> None
  | Some pid -> find_pid t pid

let best t prefix =
  match find_dest t prefix with
  | None -> None
  | Some st -> Option.map (fun b -> (b.learned_from, b.path)) st.best

let next_hop t prefix =
  match find_dest t prefix with
  | None -> None
  | Some st -> next_hop_of st.best

let rib_in t prefix =
  match find_dest t prefix with
  | None -> []
  | Some st -> slot_entries t st.rib_in

let advertised_to t prefix ~peer =
  match find_dest t prefix with
  | None -> None
  | Some st ->
      let slot = Peer_table.slot t.live_peers peer in
      if slot < 0 || st.advertised.(slot) == As_path.absent then None
      else Some st.advertised.(slot)

let route_change_count t = t.route_changes

let suppressed_peers t prefix =
  match find_dest t prefix with
  | None -> []
  | Some st ->
      List.filter
        (fun peer -> slot_suppressed t st (Peer_table.slot t.live_peers peer))
        (peers t)

let prefix_table t = t.prefixes

(* --- quiescence, arena compaction, checkpointing --- *)

let quiescent t =
  Array.for_all
    (fun mrai ->
      (not (Mrai.timer_running mrai)) && Mrai.pending_count mrai = 0)
    t.outs
  && List.for_all (fun st -> st.reuse_timer = None) t.dests_rev

(* [remap_paths] swaps every live path handle for [f handle]; the
   typical [f] is [As_path.reintern ~table:fresh].  Behavior is
   preserved because [f] returns a structurally equal path and
   [As_path.equal] falls back to structural comparison across arenas.
   Only safe at quiescence: MRAI queues and in-flight engine events
   may hold handles this walk cannot reach.  [f] sees the Adj-RIB-In
   entries by (prefix id, peer id), then the Adj-RIB-Out entries the
   same way, then the best routes, so a reintern assigns the same
   arena ids on every run.  Absent slots are skipped: [reintern] would
   turn the sentinel into [empty]. *)
let remap_paths t ~f =
  let remap rib_of =
    Array.iter
      (Option.iter (fun st ->
           let rib = rib_of st in
           Peer_table.iter_slots
             (fun slot _peer ->
               let path = rib.(slot) in
               if path != As_path.absent then rib.(slot) <- f path)
             t.live_peers))
      t.dests
  in
  remap (fun st -> st.rib_in);
  remap (fun st -> st.advertised);
  iter_dests t (fun st ->
      st.exported <- As_path.absent;
      match st.best with
      | Some b -> st.best <- Some { b with path = f b.path }
      | None -> ())

let set_path_table t table = t.paths <- table

let path_table t = t.paths

(* Snapshots are plain data: paths flattened to AS arrays (re-interned
   on restore), the slot arrays listed by peer id.  Only meaningful at
   quiescence — MRAI timers, pending messages and damping state are
   deliberately unrepresentable. *)

type dest_snapshot = {
  sn_prefix : Prefix.t;
  sn_local : bool;
  sn_rib_in : (int * int array) array;  (* by peer, ascending *)
  sn_best : (int option * int array) option;
  sn_advertised : (int * int array) array;
      (* peers holding a route from us, ascending; peers holding
         nothing are omitted (a fresh out-state is equivalent) *)
}

type snapshot = {
  sn_node : int;
  sn_alive : bool;
  sn_peers : int array;
  sn_route_changes : int;
  sn_dests : dest_snapshot array;  (* by prefix *)
}

let snapshot t =
  if not (quiescent t) then
    invalid_arg "Speaker.snapshot: speaker is not quiescent";
  if t.config.damping <> None then
    invalid_arg "Speaker.snapshot: damping state is not snapshotable";
  let arr_of_path p = Array.of_list (As_path.to_list p) in
  let entries rib =
    Array.of_list
      (List.map
         (fun (peer, path) -> (peer, arr_of_path path))
         (slot_entries t rib))
  in
  let dests =
    List.rev t.dests_rev
    |> List.map (fun st ->
           {
             sn_prefix = st.prefix;
             sn_local = st.local;
             sn_rib_in = entries st.rib_in;
             sn_best =
               Option.map
                 (fun b -> (b.learned_from, arr_of_path b.path))
                 st.best;
             sn_advertised = entries st.advertised;
           })
    |> List.sort (fun a b -> Prefix.compare a.sn_prefix b.sn_prefix)
  in
  {
    sn_node = t.node;
    sn_alive = t.alive;
    sn_peers = Array.of_list (Peer_table.to_list t.live_peers);
    sn_route_changes = t.route_changes;
    sn_dests = Array.of_list dests;
  }

(* Restore writes protocol state directly into a freshly created
   speaker: no decision process runs, nothing is emitted, and
   [on_next_hop_change] does not fire (the caller re-seeds its FIB
   view from the same checkpoint). *)
let restore t (s : snapshot) =
  if t.node <> s.sn_node then invalid_arg "Speaker.restore: node mismatch";
  if t.dests_rev <> [] then
    invalid_arg "Speaker.restore: speaker already has state";
  t.alive <- s.sn_alive;
  t.route_changes <- s.sn_route_changes;
  Peer_table.clear t.live_peers;
  Array.iter (fun p -> Peer_table.add t.live_peers p) s.sn_peers;
  sync_slots t;
  let path_of_arr arr = As_path.of_list ~table:t.paths (Array.to_list arr) in
  let store rib (peer, arr) =
    let slot = Peer_table.live_slot t.live_peers peer in
    if slot < 0 then
      invalid_arg
        (Printf.sprintf "Speaker.restore: entry for peer %d without a session"
           peer);
    rib.(slot) <- path_of_arr arr
  in
  Array.iter
    (fun d ->
      let st = dest_state t d.sn_prefix in
      st.local <- d.sn_local;
      Array.iter (store st.rib_in) d.sn_rib_in;
      st.best <-
        Option.map
          (fun (learned_from, arr) ->
            { learned_from; path = path_of_arr arr })
          d.sn_best;
      Array.iter (store st.advertised) d.sn_advertised)
    s.sn_dests

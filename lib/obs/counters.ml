type per_node = {
  mutable msgs_sent : int;
  mutable msgs_recv : int;
  mutable decision_runs : int;
  mutable fib_changes : int;
  mutable queue_depth_hwm : int;
}

type t = {
  nodes : (int, per_node) Hashtbl.t;
  mutable updates_sent : int;
  mutable updates_recv : int;
  mutable withdrawals_sent : int;
  mutable withdrawals_recv : int;
  mutable msgs_dropped : int;
  mutable decision_runs : int;
  mutable fib_changes : int;
  mutable mrai_fires : int;
  mutable link_flaps : int;
  mutable loops_detected : int;
  mutable events_executed : int;
  mutable paths_interned : int;
  mutable trace_dropped : int;
}

let create () =
  {
    nodes = Hashtbl.create 64;
    updates_sent = 0;
    updates_recv = 0;
    withdrawals_sent = 0;
    withdrawals_recv = 0;
    msgs_dropped = 0;
    decision_runs = 0;
    fib_changes = 0;
    mrai_fires = 0;
    link_flaps = 0;
    loops_detected = 0;
    events_executed = 0;
    paths_interned = 0;
    trace_dropped = 0;
  }

let node t i =
  match Hashtbl.find_opt t.nodes i with
  | Some pn -> pn
  | None ->
      let pn =
        {
          msgs_sent = 0;
          msgs_recv = 0;
          decision_runs = 0;
          fib_changes = 0;
          queue_depth_hwm = 0;
        }
      in
      Hashtbl.add t.nodes i pn;
      pn

let incr_sent t ~node:i ~withdraw =
  if withdraw then t.withdrawals_sent <- t.withdrawals_sent + 1
  else t.updates_sent <- t.updates_sent + 1;
  if i >= 0 then (
    let pn = node t i in
    pn.msgs_sent <- pn.msgs_sent + 1)

let incr_recv t ~node:i ~withdraw =
  if withdraw then t.withdrawals_recv <- t.withdrawals_recv + 1
  else t.updates_recv <- t.updates_recv + 1;
  if i >= 0 then (
    let pn = node t i in
    pn.msgs_recv <- pn.msgs_recv + 1)

let incr_dropped t = t.msgs_dropped <- t.msgs_dropped + 1

let incr_decision t ~node:i =
  t.decision_runs <- t.decision_runs + 1;
  if i >= 0 then (
    let pn = node t i in
    pn.decision_runs <- pn.decision_runs + 1)

let incr_fib_change t ~node:i =
  t.fib_changes <- t.fib_changes + 1;
  if i >= 0 then (
    let pn = node t i in
    pn.fib_changes <- pn.fib_changes + 1)

let incr_mrai_fire t = t.mrai_fires <- t.mrai_fires + 1
let incr_link_flap t = t.link_flaps <- t.link_flaps + 1
let incr_loop t = t.loops_detected <- t.loops_detected + 1
let incr_trace_dropped t = t.trace_dropped <- t.trace_dropped + 1
let add_events t n = t.events_executed <- t.events_executed + n

let observe_paths_interned t ~count =
  if count > t.paths_interned then t.paths_interned <- count

let observe_queue_depth t ~node:i ~depth =
  if i >= 0 then (
    let pn = node t i in
    if depth > pn.queue_depth_hwm then pn.queue_depth_hwm <- depth)

type snapshot = {
  s_updates_sent : int;
  s_updates_recv : int;
  s_withdrawals_sent : int;
  s_withdrawals_recv : int;
  s_msgs_dropped : int;
  s_decision_runs : int;
  s_fib_changes : int;
  s_mrai_fires : int;
  s_link_flaps : int;
  s_loops_detected : int;
  s_events_executed : int;
  s_paths_interned : int;  (* gauge: max arena occupancy, not a sum *)
  s_trace_dropped : int;
  s_nodes : (int * per_node) list;  (* sorted by node id; values copied *)
}

let snapshot t =
  let nodes =
    Hashtbl.to_seq t.nodes |> List.of_seq
    |> List.map (fun (i, pn) -> (i, { pn with msgs_sent = pn.msgs_sent }))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    s_updates_sent = t.updates_sent;
    s_updates_recv = t.updates_recv;
    s_withdrawals_sent = t.withdrawals_sent;
    s_withdrawals_recv = t.withdrawals_recv;
    s_msgs_dropped = t.msgs_dropped;
    s_decision_runs = t.decision_runs;
    s_fib_changes = t.fib_changes;
    s_mrai_fires = t.mrai_fires;
    s_link_flaps = t.link_flaps;
    s_loops_detected = t.loops_detected;
    s_events_executed = t.events_executed;
    s_paths_interned = t.paths_interned;
    s_trace_dropped = t.trace_dropped;
    s_nodes = nodes;
  }

let merge a b =
  let tbl = Hashtbl.create 64 in
  let add (i, (pn : per_node)) =
    match Hashtbl.find_opt tbl i with
    | None -> Hashtbl.add tbl i { pn with msgs_sent = pn.msgs_sent }
    | Some acc ->
        acc.msgs_sent <- acc.msgs_sent + pn.msgs_sent;
        acc.msgs_recv <- acc.msgs_recv + pn.msgs_recv;
        acc.decision_runs <- acc.decision_runs + pn.decision_runs;
        acc.fib_changes <- acc.fib_changes + pn.fib_changes;
        acc.queue_depth_hwm <- max acc.queue_depth_hwm pn.queue_depth_hwm
  in
  List.iter add a.s_nodes;
  List.iter add b.s_nodes;
  let nodes =
    Hashtbl.to_seq tbl |> List.of_seq
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  {
    s_updates_sent = a.s_updates_sent + b.s_updates_sent;
    s_updates_recv = a.s_updates_recv + b.s_updates_recv;
    s_withdrawals_sent = a.s_withdrawals_sent + b.s_withdrawals_sent;
    s_withdrawals_recv = a.s_withdrawals_recv + b.s_withdrawals_recv;
    s_msgs_dropped = a.s_msgs_dropped + b.s_msgs_dropped;
    s_decision_runs = a.s_decision_runs + b.s_decision_runs;
    s_fib_changes = a.s_fib_changes + b.s_fib_changes;
    s_mrai_fires = a.s_mrai_fires + b.s_mrai_fires;
    s_link_flaps = a.s_link_flaps + b.s_link_flaps;
    s_loops_detected = a.s_loops_detected + b.s_loops_detected;
    s_events_executed = a.s_events_executed + b.s_events_executed;
    s_paths_interned = max a.s_paths_interned b.s_paths_interned;
    s_trace_dropped = a.s_trace_dropped + b.s_trace_dropped;
    s_nodes = nodes;
  }

let le a b =
  a.s_updates_sent <= b.s_updates_sent
  && a.s_updates_recv <= b.s_updates_recv
  && a.s_withdrawals_sent <= b.s_withdrawals_sent
  && a.s_withdrawals_recv <= b.s_withdrawals_recv
  && a.s_msgs_dropped <= b.s_msgs_dropped
  && a.s_decision_runs <= b.s_decision_runs
  && a.s_fib_changes <= b.s_fib_changes
  && a.s_mrai_fires <= b.s_mrai_fires
  && a.s_link_flaps <= b.s_link_flaps
  && a.s_loops_detected <= b.s_loops_detected
  && a.s_events_executed <= b.s_events_executed
  && a.s_paths_interned <= b.s_paths_interned
  && a.s_trace_dropped <= b.s_trace_dropped

let pp ppf s =
  let f fmt = Format.fprintf ppf fmt in
  f "counters:@\n";
  f "  updates      sent %d  recv %d@\n" s.s_updates_sent s.s_updates_recv;
  f "  withdrawals  sent %d  recv %d@\n" s.s_withdrawals_sent
    s.s_withdrawals_recv;
  f "  msgs dropped %d@\n" s.s_msgs_dropped;
  f "  decision runs %d   fib changes %d@\n" s.s_decision_runs s.s_fib_changes;
  f "  mrai fires %d   link flaps %d   loops detected %d@\n" s.s_mrai_fires
    s.s_link_flaps s.s_loops_detected;
  f "  engine events executed %d@\n" s.s_events_executed;
  if s.s_paths_interned > 0 then
    f "  paths interned %d@\n" s.s_paths_interned;
  if s.s_trace_dropped > 0 then
    f "  trace events dropped %d@\n" s.s_trace_dropped;
  if s.s_nodes <> [] then begin
    f "  per-node (id: sent/recv/decisions/fib/qdepth-hwm):@\n";
    List.iter
      (fun (i, pn) ->
        f "    %3d: %d/%d/%d/%d/%d@\n" i pn.msgs_sent pn.msgs_recv
          pn.decision_runs pn.fib_changes pn.queue_depth_hwm)
      s.s_nodes
  end

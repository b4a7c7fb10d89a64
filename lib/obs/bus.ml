type t = { enabled : bool; sink : Sink.t; counters : Counters.t option }

let off = { enabled = false; sink = Sink.null; counters = None }

let create ?(sink = Sink.null) ?counters () = { enabled = true; sink; counters }

let enabled t = t.enabled
let sink t = t.sink
let counters t = t.counters
let close t = Sink.close t.sink

(* All emit helpers are no-ops on [off]; the [t.sink != Sink.null] guard
   additionally skips event construction in counters-only mode so that a
   bus created for counters alone allocates nothing per message. *)

let[@inline] want_events t = t.enabled && t.sink != Sink.null

let update_sent ?prefix t ~time ~src ~dst ~withdraw =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_sent c ~node:src ~withdraw
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Update_sent { time; src; dst; withdraw; prefix })
  end

let update_recv ?prefix t ~time ~node ~from ~withdraw =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_recv c ~node ~withdraw
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Update_recv { time; node; from; withdraw; prefix })
  end

let originate ?prefix t ~time ~node =
  if want_events t then Sink.emit t.sink (Event.Originate { time; node; prefix })

let local_withdraw ?prefix t ~time ~node =
  if want_events t then
    Sink.emit t.sink (Event.Withdrawal { time; node; prefix })

let fib_change ?prefix t ~time ~node ~next_hop =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_fib_change c ~node
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Fib_change { time; node; next_hop; prefix })
  end

let mrai_fire t ~time ~node ~peer =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_mrai_fire c
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Mrai_fire { time; node; peer })
  end

let node_submit t ~time ~node ~busy ~depth =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.observe_queue_depth c ~node ~depth
    | None -> ());
    if busy && t.sink != Sink.null then
      Sink.emit t.sink (Event.Node_busy { time; node; depth })
  end

let link_state t ~time ~a ~b ~up =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_link_flap c
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Link_state { time; a; b; up })
  end

let msg_dropped t ~time ~a ~b ~reason =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_dropped c
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Msg_dropped { time; a; b; reason })
  end

let loop_detected ?prefix t ~time ~members ~trigger =
  if t.enabled then begin
    (match t.counters with
    | Some c -> Counters.incr_loop c
    | None -> ());
    if t.sink != Sink.null then
      Sink.emit t.sink (Event.Loop_detected { time; members; trigger; prefix })
  end

let loop_resolved ?prefix t ~time ~members =
  if want_events t then
    Sink.emit t.sink (Event.Loop_resolved { time; members; prefix })

let decision_run t ~node =
  if t.enabled then
    match t.counters with
    | Some c -> Counters.incr_decision c ~node
    | None -> ()

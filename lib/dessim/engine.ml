(* One record serves as both the scheduled event and the caller's
   cancellation handle — a separate handle record would be one more
   allocation per scheduled event for no information. *)
type handle = {
  mutable state : [ `Pending | `Cancelled | `Fired ];
  action : unit -> unit;
  tag : string option;
}

type event = handle

(* The clock lives in its own single-float record: an all-float record
   is flat, so advancing the clock mutates in place instead of boxing a
   fresh float per event (as a float field in the mixed [t] would). *)
type clock = { mutable now : float }

type t = {
  queue : event Event_queue.t;
  clock : clock;
  mutable executed : int;
  mutable clock_monitor : (old_time:float -> new_time:float -> unit) option;
  mutable profiler : (tag:string option -> run:(unit -> unit) -> unit) option;
}

let create ?(now = 0.) () =
  {
    queue = Event_queue.create ();
    clock = { now };
    executed = 0;
    clock_monitor = None;
    profiler = None;
  }

let set_clock_monitor t f = t.clock_monitor <- Some f
let set_step_profiler t f = t.profiler <- Some f

let now t = t.clock.now

let check_not_past fn t at =
  if at < t.clock.now then
    invalid_arg
      (Printf.sprintf "Engine.%s: time %g is before now %g" fn at t.clock.now)

let schedule ?tag t ~at action =
  check_not_past "schedule" t at;
  let handle = { state = `Pending; action; tag } in
  Event_queue.push t.queue ~time:at handle;
  handle

let reserve t = Event_queue.reserve t.queue

let schedule_reserved ?tag t ~at ~seq action =
  check_not_past "schedule_reserved" t at;
  Event_queue.push_reserved t.queue ~time:at ~seq
    { state = `Pending; action; tag }

let schedule_after ?tag t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule ?tag t ~at:(t.clock.now +. delay) action

let cancel handle =
  match handle.state with
  | `Pending -> handle.state <- `Cancelled
  | `Cancelled | `Fired -> ()

let cancelled handle = handle.state = `Cancelled

let rec step t =
  if Event_queue.is_empty t.queue then false
  else
    let time = Event_queue.top_time t.queue in
    let ev = Event_queue.pop_item t.queue in
    match ev.state with
    | `Cancelled -> step t
    | `Fired -> assert false
    | `Pending ->
        (match t.clock_monitor with
        | Some f -> f ~old_time:t.clock.now ~new_time:time
        | None -> ());
        t.clock.now <- time;
        ev.state <- `Fired;
        t.executed <- t.executed + 1;
        (match t.profiler with
        | None -> ev.action ()
        | Some p -> p ~tag:ev.tag ~run:ev.action);
        true

(* Earliest live (non-cancelled) event time.  Cancelled heads are dead
   weight; popping them here is observationally a no-op. *)
let rec next_live_time t =
  match Event_queue.peek t.queue with
  | None -> None
  | Some (time, ev) ->
      if ev.state = `Cancelled then begin
        ignore (Event_queue.pop t.queue : (float * event) option);
        next_live_time t
      end
      else Some time

let run ?until ?max_events t =
  let budget = match max_events with None -> max_int | Some m -> m in
  match until with
  | None ->
      let rec loop () = if t.executed < budget && step t then loop () in
      loop ()
  | Some limit ->
      (* test the next live event, not the raw head: [step] skips a
         cancelled head and would fire whatever lies behind it *)
      let rec loop () =
        if
          t.executed < budget
          && (match next_live_time t with
             | Some time -> time <= limit
             | None -> false)
          && step t
        then loop ()
      in
      loop ()

let pending t = Event_queue.size t.queue

let events_executed t = t.executed

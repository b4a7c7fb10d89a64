type mode = Collapse | Fifo

(* One timer, many destination keys.  Rate limiting is logically per
   key — per (peer, prefix) for a speaker — exactly as in the paper's
   model: each key has its own interval deadline, and a key with no
   running interval sends immediately regardless of the others.  What
   is shared is the *physical* engine timer: one scheduled event per
   limiter, kept at the earliest pending deadline, so N prefixes
   toward one peer never hold N outstanding timer events.

   With a single key the state machine is exactly the historical
   per-(peer, destination) limiter — same transmit points, same
   interval draws, same fire times: golden traces depend on that
   equivalence. *)

(* A key's state is made the first time its interval starts and kept
   for the limiter's life.  It is [live] (and sits once in [deadlines])
   iff its interval is running, i.e. it transmitted less than one
   interval ago; a key that is not live holds no message. *)
type 'msg key_state = {
  key : int;
  mutable live : bool;
  mutable until : float;  (* absolute vtime the interval expires *)
  queue : 'msg Queue.t;
      (* Collapse keeps at most one element; Fifo keeps them all.  May
         be empty (e.g. cleared by [send_now]): the interval still has
         to run out before the key may transmit again. *)
}

type 'msg t = {
  mode : mode;
  engine : Dessim.Engine.t;
  draw_interval : unit -> float;
  transmit : key:int -> 'msg -> bool;
  on_fire : (unit -> unit) option;
  mutable keys : 'msg key_state option array;
      (* by key, grown on demand; a state once made is never dropped *)
  mutable deadlines : 'msg key_state Dessim.Event_queue.t;
      (* running keys keyed on [until]; equal deadlines pop in push
         (= interval-start) order *)
  mutable pending_total : int;
  mutable handle : Dessim.Engine.handle option;
  mutable timer_at : float;  (* meaningful iff [handle <> None] *)
}

let create ?(mode = Collapse) ?on_fire ~engine ~draw_interval ~transmit () =
  {
    mode;
    engine;
    draw_interval;
    transmit;
    on_fire;
    keys = [||];
    deadlines = Dessim.Event_queue.create ();
    pending_total = 0;
    handle = None;
    timer_at = 0.;
  }

let check_key fn key =
  if key < 0 then invalid_arg (Printf.sprintf "Mrai.%s: negative key %d" fn key)

(* The key's state when its interval is running.  [key] is checked
   non-negative by every entry point. *)
let running t key =
  if key < Array.length t.keys then
    match t.keys.(key) with
    | Some st as running when st.live -> running
    | Some _ | None -> None
  else None

(* Transmit [st]'s first pending message that really leaves, dropping
   the suppressed duplicates before it. *)
let rec release t st =
  if Queue.is_empty st.queue then false
  else begin
    let msg = Queue.take st.queue in
    t.pending_total <- t.pending_total - 1;
    t.transmit ~key:st.key msg || release t st
  end

(* Push re-armed keys back in release order ([rearmed] is newest
   first). *)
let rec push_rearmed t = function
  | [] -> ()
  | st :: older ->
      push_rearmed t older;
      Dessim.Event_queue.push t.deadlines ~time:st.until st

(* Keep the shared timer at the earliest deadline.  Deadlines are
   scheduled absolutely ([schedule ~at]) so a rescheduled fire lands on
   the same float the deadline was computed with. *)
let rec ensure_timer_at t ~at =
  let reschedule =
    match t.handle with
    | None -> true
    | Some h ->
        if at < t.timer_at then (
          Dessim.Engine.cancel h;
          true)
        else false
  in
  if reschedule then begin
    t.timer_at <- at;
    t.handle <-
      Some
        (Dessim.Engine.schedule ~tag:"mrai-fire" t.engine ~at (fun () ->
             fire t))
  end

(* Start [key]'s interval just after it transmitted. *)
and begin_interval t key ~now =
  let until = now +. t.draw_interval () in
  let n = Array.length t.keys in
  if key >= n then begin
    let keys = Array.make (Stdlib.max (key + 1) (2 * n)) None in
    Array.blit t.keys 0 keys 0 n;
    t.keys <- keys
  end;
  let st =
    match t.keys.(key) with
    | Some st -> st
    | None ->
        let st = { key; live = false; until; queue = Queue.create () } in
        t.keys.(key) <- Some st;
        st
  in
  st.live <- true;
  st.until <- until;
  Dessim.Event_queue.push t.deadlines ~time:until st;
  ensure_timer_at t ~at:until

and fire t =
  t.handle <- None;
  (match t.on_fire with None -> () | Some f -> f ());
  let now = Dessim.Engine.now t.engine in
  (* Every expired key releases (at most) one message; a key that
     released re-arms its interval, a key with nothing to send falls
     out of rate limiting.  The timer sits at the earliest deadline, so
     every expired key has [until = now] exactly and pops in
     interval-start order — the order per-key timers would fire in.
     Re-armed keys go back only after the loop, in release order: a
     zero interval ends at [now] again and must wait for the next fire
     event, not release twice in this one. *)
  let rearmed = ref [] in
  while
    (not (Dessim.Event_queue.is_empty t.deadlines))
    && Dessim.Event_queue.top_time t.deadlines <= now
  do
    let st = Dessim.Event_queue.pop_item t.deadlines in
    if release t st then begin
      st.until <- now +. t.draw_interval ();
      rearmed := st :: !rearmed
    end
    else st.live <- false
  done;
  push_rearmed t !rearmed;
  if not (Dessim.Event_queue.is_empty t.deadlines) then
    ensure_timer_at t ~at:(Dessim.Event_queue.top_time t.deadlines)

let offer ?(key = 0) t msg =
  check_key "offer" key;
  match running t key with
  | Some st ->
      (* interval running: hold the message for the next expiry *)
      (match t.mode with
      | Collapse ->
          t.pending_total <- t.pending_total - Queue.length st.queue;
          Queue.clear st.queue
      | Fifo -> ());
      Queue.add msg st.queue;
      t.pending_total <- t.pending_total + 1
  | None ->
      if t.transmit ~key msg then
        begin_interval t key ~now:(Dessim.Engine.now t.engine)

let send_now ?(key = 0) t ~keep_pending msg =
  check_key "send_now" key;
  if not keep_pending then begin
    match running t key with
    | None -> ()
    | Some st ->
        t.pending_total <- t.pending_total - Queue.length st.queue;
        Queue.clear st.queue
  end;
  ignore (t.transmit ~key msg : bool)

let timer_running t = t.handle <> None

let key_running t key =
  check_key "key_running" key;
  Option.is_some (running t key)

let pending_count t = t.pending_total

let reset t =
  Option.iter Dessim.Engine.cancel t.handle;
  t.handle <- None;
  Array.iter
    (Option.iter (fun st ->
         st.live <- false;
         Queue.clear st.queue))
    t.keys;
  t.deadlines <- Dessim.Event_queue.create ();
  t.pending_total <- 0

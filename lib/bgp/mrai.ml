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

(* A key appears in [keys] (and once in [order]) iff its interval is
   running, i.e. it transmitted less than one interval ago. *)
type 'msg key_state = {
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
  transmit : 'msg -> bool;
  on_fire : (unit -> unit) option;
  keys : (int, 'msg key_state) Hashtbl.t;
  order : int Queue.t;
      (* rate-limited keys in interval-start order; each key once *)
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
    keys = Hashtbl.create 4;
    order = Queue.create ();
    pending_total = 0;
    handle = None;
    timer_at = 0.;
  }

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
  Hashtbl.replace t.keys key { until; queue = Queue.create () };
  Queue.add key t.order;
  ensure_timer_at t ~at:until

and fire t =
  t.handle <- None;
  (match t.on_fire with None -> () | Some f -> f ());
  let now = Dessim.Engine.now t.engine in
  (* Every expired key releases (at most) one message: drain suppressed
     duplicates per key; a key that released re-arms its interval, a
     key with nothing to send falls out of rate limiting.  [order] is
     kept in interval-start order — the order per-key timers would
     fire in — so unexpired keys keep their place at the front and
     re-armed keys (interval starting now) move behind them. *)
  let n = Queue.length t.order in
  let rearmed = Queue.create () in
  for _ = 1 to n do
    let key = Queue.pop t.order in
    let st = Hashtbl.find t.keys key in
    if st.until <= now then begin
      let rec drain () =
        match Queue.take_opt st.queue with
        | None -> false
        | Some msg ->
            t.pending_total <- t.pending_total - 1;
            if t.transmit msg then true else drain ()
      in
      if drain () then begin
        st.until <- now +. t.draw_interval ();
        Queue.add key rearmed
      end
      else Hashtbl.remove t.keys key
    end
    else Queue.add key t.order
  done;
  Queue.transfer rearmed t.order;
  (* re-arm at the earliest surviving deadline, if any *)
  let next = ref infinity in
  Queue.iter
    (fun key ->
      let st = Hashtbl.find t.keys key in
      if st.until < !next then next := st.until)
    t.order;
  if !next < infinity then ensure_timer_at t ~at:!next

let offer ?(key = 0) t msg =
  match Hashtbl.find_opt t.keys key with
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
      if t.transmit msg then
        begin_interval t key ~now:(Dessim.Engine.now t.engine)

let send_now ?(key = 0) t ~keep_pending msg =
  if not keep_pending then begin
    match Hashtbl.find_opt t.keys key with
    | None -> ()
    | Some st ->
        t.pending_total <- t.pending_total - Queue.length st.queue;
        Queue.clear st.queue
  end;
  ignore (t.transmit msg : bool)

let timer_running t = t.handle <> None

let key_running t key = Hashtbl.mem t.keys key

let pending t =
  (* the next message an expiry will release: head of the first
     pending key's queue in fire order *)
  let found = ref None in
  (try
     Queue.iter
       (fun key ->
         let st = Hashtbl.find t.keys key in
         if not (Queue.is_empty st.queue) then begin
           found := Queue.peek_opt st.queue;
           raise Exit
         end)
       t.order
   with Exit -> ());
  !found

let pending_count t = t.pending_total

let reset t =
  Option.iter Dessim.Engine.cancel t.handle;
  t.handle <- None;
  Hashtbl.reset t.keys;
  Queue.clear t.order;
  t.pending_total <- 0

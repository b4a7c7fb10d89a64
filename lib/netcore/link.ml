type chaos = { loss : float; dup : float; rng : Dessim.Rng.t }

type t = {
  a : int;
  b : int;
  delay : float;
  mutable up : bool;
  mutable epoch : int;
  mutable chaos : chaos option;
  mutable epoch_guard : bool;
  mutable checker : Faults.Invariant.t;
  mutable obs : Obs.Bus.t;
}

let create ~a ~b ~delay =
  if delay <= 0. then invalid_arg "Link.create: delay <= 0";
  if a = b then invalid_arg "Link.create: self-link";
  {
    a;
    b;
    delay;
    up = true;
    epoch = 0;
    chaos = None;
    epoch_guard = true;
    checker = Faults.Invariant.off;
    obs = Obs.Bus.off;
  }

let endpoints t = (t.a, t.b)

let is_up t = t.up

let epoch t = t.epoch

let set_chaos t ?(loss = 0.) ?(dup = 0.) ~rng () =
  let check what p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Link.set_chaos: %s outside [0, 1]" what)
  in
  check "loss" loss;
  check "dup" dup;
  (* bgpsim-lint: allow D004 — exact zero test on user-supplied probabilities *)
  t.chaos <- (if loss = 0. && dup = 0. then None else Some { loss; dup; rng })

let set_epoch_guard t on = t.epoch_guard <- on

let attach_checker t checker = t.checker <- checker

let attach_obs t obs = t.obs <- obs

let fail t =
  if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.epoch <- t.epoch + 1
  end

let send t ~engine ~from ~deliver =
  if from <> t.a && from <> t.b then
    invalid_arg
      (Printf.sprintf "Link.send: node %d is not an endpoint of (%d,%d)" from
         t.a t.b);
  let dst = if from = t.a then t.b else t.a in
  (* no shared [dropped ~reason] closure: sends vastly outnumber drops,
     and the hot path should not allocate for the cold one *)
  if not t.up then begin
    Obs.Bus.msg_dropped t.obs
      ~time:(Dessim.Engine.now engine)
      ~a:from ~b:dst ~reason:Obs.Event.Down;
    false
  end
  else begin
    let sent_epoch = t.epoch in
    let arrival () =
      if t.up then begin
        if t.epoch = sent_epoch then deliver ()
        else if t.epoch_guard then
          Obs.Bus.msg_dropped t.obs
            ~time:(Dessim.Engine.now engine)
            ~a:from ~b:dst ~reason:Obs.Event.Stale_epoch
        else begin
          (* Fault-injection knob: the stale-epoch drop is disabled, so
             the message crosses a fail/recover boundary — exactly what
             the invariant checker exists to catch. *)
          Faults.Invariant.report t.checker Stale_epoch_delivery
            ~detail:(fun () ->
              Printf.sprintf
                "link (%d,%d): message sent at epoch %d delivered at epoch %d"
                t.a t.b sent_epoch t.epoch);
          deliver ()
        end
      end
      else
        Obs.Bus.msg_dropped t.obs
          ~time:(Dessim.Engine.now engine)
          ~a:from ~b:dst ~reason:Obs.Event.Down
    in
    let copies =
      match t.chaos with
      | None -> 1
      | Some { loss; dup; rng } ->
          (* Fixed draw order (loss then dup) keeps runs reproducible. *)
          let lost = loss > 0. && Dessim.Rng.float rng 1. < loss in
          let duplicated = dup > 0. && Dessim.Rng.float rng 1. < dup in
          if lost then 0 else if duplicated then 2 else 1
    in
    if copies = 0 then
      Obs.Bus.msg_dropped t.obs
        ~time:(Dessim.Engine.now engine)
        ~a:from ~b:dst ~reason:Obs.Event.Loss;
    for _ = 1 to copies do
      let (_ : Dessim.Engine.handle) =
        Dessim.Engine.schedule_after ~tag:"link-deliver" engine ~delay:t.delay
          arrival
      in
      ()
    done;
    true
  end

(* A router's processing queue as a FIFO lane.  Every accepted message
   takes its completion time and an engine sequence number on arrival,
   exactly the key a per-message event would have had, but only the
   head of the lane sits in the engine's heap; the rest wait in a ring
   of columns (completion, reserved seq, sender, payload) that
   allocates nothing per message once it has grown.

   The pop order cannot change: within a lane the keys strictly
   increase (completions are [max now busy_until + delay] with
   [busy_until] only growing and [delay >= 0]; the numbers grow with
   arrival), so a waiting entry can never be the minimum of the heap
   while its head is there.  When the head fires, the next entry goes
   in before any other event is popped. *)

type 'a t = {
  engine : Dessim.Engine.t;
  process : from:int -> 'a -> unit;
  obs : Obs.Bus.t;
  node : int;
  mutable busy_until : float;
  (* the ring: [length] entries from [first], capacity a power of two *)
  mutable times : float array;
  mutable seqs : int array;
  mutable froms : int array;
  mutable msgs : 'a array;
  mutable first : int;
  mutable length : int;
  mutable fire : unit -> unit;  (* the head's engine action, made once *)
}

(* Filler for empty payload cells, so a processed message is not kept
   reachable until its cell is reused.  Never read as a payload (every
   read is of a live entry); safe as long as the payload is never a
   bare float, which would make [msgs] a flat float array. *)
let dummy : unit -> 'a = fun () -> Obj.magic 0

let busy_until t = t.busy_until

let queue_depth t = t.length

let schedule_head t =
  let i = t.first in
  Dessim.Engine.schedule_reserved ~tag:"proc-complete" t.engine
    ~at:t.times.(i) ~seq:t.seqs.(i) t.fire

let complete t =
  let i = t.first in
  let from = t.froms.(i) and msg = t.msgs.(i) in
  t.msgs.(i) <- dummy ();
  t.first <- (i + 1) land (Array.length t.seqs - 1);
  t.length <- t.length - 1;
  if t.length > 0 then schedule_head t;
  t.process ~from msg

let create ?(obs = Obs.Bus.off) ?(node = -1) ~engine ~process () =
  let t =
    {
      engine;
      process;
      obs;
      node;
      busy_until = neg_infinity;
      times = [||];
      seqs = [||];
      froms = [||];
      msgs = [||];
      first = 0;
      length = 0;
      fire = ignore;
    }
  in
  t.fire <- (fun () -> complete t);
  t

(* Double the ring, unrolling it so the head lands in cell 0. *)
let grow t =
  let cap = Array.length t.seqs in
  let ncap = Stdlib.max 4 (2 * cap) in
  let times = Array.make ncap 0.
  and seqs = Array.make ncap 0
  and froms = Array.make ncap 0
  and msgs = Array.make ncap (dummy ()) in
  for k = 0 to t.length - 1 do
    let i = (t.first + k) land (cap - 1) in
    times.(k) <- t.times.(i);
    seqs.(k) <- t.seqs.(i);
    froms.(k) <- t.froms.(i);
    msgs.(k) <- t.msgs.(i)
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.froms <- froms;
  t.msgs <- msgs;
  t.first <- 0

let submit t ~delay ~from msg =
  if delay < 0. then invalid_arg "Node_proc.submit: negative delay";
  let now = Dessim.Engine.now t.engine in
  let start = Stdlib.max now t.busy_until in
  let completion = start +. delay in
  t.busy_until <- completion;
  if t.length = Array.length t.seqs then grow t;
  let i = (t.first + t.length) land (Array.length t.seqs - 1) in
  t.times.(i) <- completion;
  t.seqs.(i) <- Dessim.Engine.reserve t.engine;
  t.froms.(i) <- from;
  t.msgs.(i) <- msg;
  t.length <- t.length + 1;
  Obs.Bus.node_submit t.obs ~time:now ~node:t.node ~busy:(start > now)
    ~depth:t.length;
  if t.length = 1 then schedule_head t

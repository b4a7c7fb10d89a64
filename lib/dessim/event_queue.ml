(* Binary min-heap over (time, sequence), stored as three parallel
   arrays (struct-of-arrays).  A heap of records would box the float
   time of every entry and allocate an entry per push plus an option
   and a tuple per pop — at simulation scale that is allocation (and
   minor-GC work) per event.  The columns allocate nothing per
   operation: times live in a flat float array (unboxed), and the sift
   loops touch only the two scalar columns until the final write. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Small on purpose: every MRAI limiter owns a queue of its running
   keys, and most hold one key, so a large first allocation would
   dominate their footprint.  The engine's own queue reaches its
   working size in a few doublings, and heap order does not depend on
   capacity. *)
let initial_capacity = 4

(* Filler for slots at or above [size].  Such slots are never read as
   items (every traversal is bounded by [size]), they only need some
   value so the array does not retain popped items — a popped event's
   closure would otherwise stay reachable until its slot happened to be
   overwritten.  An immediate int is safe as long as ['a] is never a
   bare float (the items column must not be a flat float array); the
   engine stores event records there. *)
let dummy : unit -> 'a = fun () -> Obj.magic 0

let create () =
  { times = [||]; seqs = [||]; items = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let ensure_capacity t =
  let cap = Array.length t.seqs in
  if t.size >= cap then begin
    let ncap = Stdlib.max initial_capacity (2 * cap) in
    let times = Array.make ncap 0. in
    let seqs = Array.make ncap 0 in
    let items = Array.make ncap (dummy ()) in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.items 0 items 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.items <- items
  end

(* Hole-shifting sifts: the moving entry rides along as three scalars
   (the float stays unboxed in registers) and is written exactly once,
   at its final position. *)
let sift_up t i time seq item =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get t.times parent in
    (* bgpsim-lint: allow D004 — bitwise-equal keys tie-break on the seq number *)
    if time < pt || (time = pt && seq < Array.unsafe_get t.seqs parent) then begin
      Array.unsafe_set t.times !i pt;
      Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs parent);
      Array.unsafe_set t.items !i (Array.unsafe_get t.items parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.items !i item

let sift_down t i time seq item =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref (-1) in
    let bt = ref time and bs = ref seq in
    if l < t.size then begin
      let lt = Array.unsafe_get t.times l in
      (* bgpsim-lint: allow D004 — bitwise-equal keys tie-break on the seq number *)
      if lt < !bt || (lt = !bt && Array.unsafe_get t.seqs l < !bs) then begin
        smallest := l;
        bt := lt;
        bs := Array.unsafe_get t.seqs l
      end
    end;
    if r < t.size then begin
      let rt = Array.unsafe_get t.times r in
      (* bgpsim-lint: allow D004 — bitwise-equal keys tie-break on the seq number *)
      if rt < !bt || (rt = !bt && Array.unsafe_get t.seqs r < !bs) then
        smallest := r
    end;
    let s = !smallest in
    if s < 0 then continue := false
    else begin
      Array.unsafe_set t.times !i (Array.unsafe_get t.times s);
      Array.unsafe_set t.seqs !i (Array.unsafe_get t.seqs s);
      Array.unsafe_set t.items !i (Array.unsafe_get t.items s);
      i := s
    end
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.items !i item

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let insert t ~time ~seq item =
  ensure_capacity t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq item

let push t ~time item =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  insert t ~time ~seq:(reserve t) item

let push_reserved t ~time ~seq item =
  if Float.is_nan time then invalid_arg "Event_queue.push_reserved: NaN time";
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Event_queue.push_reserved: sequence number not reserved";
  insert t ~time ~seq item

let top_time t = t.times.(0)

let pop_item t =
  let item = t.items.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then
    sift_down t 0 t.times.(n) t.seqs.(n) (Array.unsafe_get t.items n);
  t.items.(n) <- dummy ();
  item

let pop t =
  if t.size = 0 then None
  else
    let time = top_time t in
    let item = pop_item t in
    Some (time, item)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let peek t = if t.size = 0 then None else Some (t.times.(0), t.items.(0))

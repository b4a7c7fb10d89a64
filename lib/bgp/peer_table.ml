(* Slots are handed out in first-seen order and never move, so any
   array indexed by slot stays valid across session churn; [known] and
   [order] keep the ascending-id views that lookups and iteration
   need. *)
type t = {
  mutable ids : int array;  (* slot -> peer id *)
  mutable live : bool array;  (* slot -> session up *)
  mutable known : int array;  (* every slot, ascending peer id *)
  mutable order : int array;  (* live slots, ascending peer id *)
}

let by_id ids a b = Int.compare ids.(a) ids.(b)

let rebuild_order t =
  t.order <-
    Array.of_list (List.filter (Array.get t.live) (Array.to_list t.known))

let create peers =
  let ids = Array.of_list (List.sort_uniq Int.compare peers) in
  let n = Array.length ids in
  let t =
    { ids; live = Array.make n true; known = Array.init n Fun.id; order = [||] }
  in
  rebuild_order t;
  t

let n_slots t = Array.length t.ids

let peer_of_slot t slot = t.ids.(slot)

(* Binary search over every slot ever allocated, ascending by id; a
   loop rather than a local recursive function, which would allocate
   its closure on every call. *)
let slot t peer =
  let ids = t.ids and known = t.known in
  let lo = ref 0 and hi = ref (Array.length known) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let s = known.(mid) in
    let v = ids.(s) in
    if v = peer then found := s
    else if v < peer then lo := mid + 1
    else hi := mid
  done;
  !found

let live_slot t peer =
  let s = slot t peer in
  if s >= 0 && t.live.(s) then s else -1

let mem t peer = live_slot t peer >= 0

let add t peer =
  let s = slot t peer in
  if s < 0 then begin
    let s = Array.length t.ids in
    t.ids <- Array.append t.ids [| peer |];
    t.live <- Array.append t.live [| true |];
    let known = Array.append t.known [| s |] in
    Array.stable_sort (by_id t.ids) known;
    t.known <- known;
    rebuild_order t
  end
  else if not t.live.(s) then begin
    t.live.(s) <- true;
    rebuild_order t
  end

let remove t peer =
  let s = live_slot t peer in
  if s >= 0 then begin
    t.live.(s) <- false;
    rebuild_order t
  end

let clear t =
  Array.fill t.live 0 (Array.length t.live) false;
  t.order <- [||]

let cardinal t = Array.length t.order

let slot_at t i = t.order.(i)

let iter_slots f t =
  let order = t.order and ids = t.ids in
  for i = 0 to Array.length order - 1 do
    let s = order.(i) in
    f s ids.(s)
  done

let to_list t = Array.to_list (Array.map (peer_of_slot t) t.order)

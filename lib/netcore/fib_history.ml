type change = { time : float; node : int; next_hop : int option }

type t = {
  n : int;
  per_node : (float * int option) Dessim.Vec.t array;
  global : change Dessim.Vec.t;
}

let create ~n =
  if n <= 0 then invalid_arg "Fib_history.create: n <= 0";
  {
    n;
    per_node = Array.init n (fun _ -> Dessim.Vec.create ());
    global = Dessim.Vec.create ();
  }

let n_nodes t = t.n

let check_node t node =
  if node < 0 || node >= t.n then
    invalid_arg (Printf.sprintf "Fib_history: node %d out of range" node)

let current t node =
  match Dessim.Vec.last t.per_node.(node) with
  | None -> None
  | Some (_, nh) -> nh

let record t ~time ~node ~next_hop =
  check_node t node;
  if Float.is_nan time then invalid_arg "Fib_history.record: time is NaN";
  (match next_hop with
  | Some hop when hop < 0 || hop >= t.n ->
      invalid_arg
        (Printf.sprintf "Fib_history.record: next hop %d out of range" hop)
  | Some _ | None -> ());
  (match Dessim.Vec.last t.per_node.(node) with
  | Some (last_time, _) when time < last_time ->
      invalid_arg
        (Printf.sprintf
           "Fib_history.record: time %g precedes node %d's last change %g"
           time node last_time)
  | Some _ | None -> ());
  if current t node <> next_hop then begin
    Dessim.Vec.push t.per_node.(node) (time, next_hop);
    Dessim.Vec.push t.global { time; node; next_hop }
  end

(* Largest index whose change time satisfies [le_pred]; -1 if none. *)
let search vec pred =
  let n = Dessim.Vec.length vec in
  let lo = ref (-1) and hi = ref (n - 1) in
  (* invariant: changes at indices <= !lo satisfy pred; > !hi do not *)
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    let time, _ = Dessim.Vec.get vec mid in
    if pred time then lo := mid else hi := mid - 1
  done;
  !lo

let lookup t ~node ~time =
  check_node t node;
  let vec = t.per_node.(node) in
  let idx = search vec (fun change_time -> change_time <= time) in
  if idx < 0 then None else snd (Dessim.Vec.get vec idx)

let snapshot t ~before =
  Array.init t.n (fun node ->
      let vec = t.per_node.(node) in
      let idx = search vec (fun change_time -> change_time < before) in
      if idx < 0 then None else snd (Dessim.Vec.get vec idx))

let changes_from t ~from =
  Dessim.Vec.fold_left
    (fun acc change -> if change.time >= from then change :: acc else acc)
    [] t.global
  |> List.rev

let change_count t = Dessim.Vec.length t.global

let last_change_time t =
  match Dessim.Vec.last t.global with
  | None -> None
  | Some change -> Some change.time

(* The loop tracker, fed one FIB change at a time.  [scan] replays a
   recorded history through it; Mesh_sim and the churn driver call
   [observe] as the simulation runs.

   The state is deliberately plain data (no closures, no Vec): churn
   checkpoints Marshal it directly, so the field order and types of
   [live] and [t] are part of the checkpoint format and change only
   with a Checkpoint.version bump.  The observability bus is passed per
   [observe] call rather than stored, for the same reason. *)

type loop = {
  members : int list;
  birth : float;
  death : float option;
  trigger : int;
}

let size l = List.length l.members

let duration l ~until =
  match l.death with Some d -> d -. l.birth | None -> until -. l.birth

let pp_loop fmt l =
  Format.fprintf fmt "loop [%s] born %g%s"
    (String.concat " -> " (List.map string_of_int l.members))
    l.birth
    (match l.death with
    | Some d -> Printf.sprintf " died %g" d
    | None -> " (alive)")

type report = {
  loops : loop list;
  first_loop_birth : float option;
  last_loop_death : float option;
  max_concurrent : int;
}

(* Rotate a cycle so it starts at its smallest member; forwarding order
   is preserved. *)
let canonicalize cycle =
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  let start = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) < arr.(!start) then start := i
  done;
  List.init n (fun i -> arr.((!start + i) mod n))

(* A live loop. *)
type live = { l_members : int list; l_birth : float; l_trigger : int }

type t = {
  origin : int;
  next_hop : int option array;
  (* node -> the live loop it belongs to, if any *)
  member_of : live option array;
  mutable alive : int;
  mutable max_alive : int;
  record : bool;
  mutable finished_rev : loop list;  (* only when [record] *)
  (* bounded-memory aggregates, maintained in both modes *)
  mutable started : int;
  mutable resolved : int;
  mutable sum_size : int;
  mutable max_size : int;
  mutable finished_loop_seconds : float;
  mutable first_loop_birth : float option;
  mutable last_loop_death : float option;
}

let to_loop live death =
  {
    members = live.l_members;
    birth = live.l_birth;
    death;
    trigger = live.l_trigger;
  }

(* Chase the next-hop chain from [v]; if it returns to [v], the nodes
   visited so far form a new cycle through [v].  The chain can otherwise
   end at the origin, at a routeless node, or merge into an existing
   loop (or a tail leading to one) — none of which creates a new loop.
   The walk is bounded by n hops since cycles are disjoint and every
   revisit is caught. *)
let find_new_cycle t v =
  let n = Array.length t.next_hop in
  let rec chase node acc steps =
    if steps > n then
      (* impossible: some node would have repeated, caught below *)
      assert false
    else if node = t.origin then None
    else if t.member_of.(node) <> None then None
    else
      match t.next_hop.(node) with
      | None -> None
      | Some next ->
          if next = v then Some (List.rev (node :: acc))
          else if List.mem next acc || next = node then
            (* A cycle not through [v] would have to predate this
               change, hence be registered already — caught above. *)
            assert false
          else chase next (node :: acc) (steps + 1)
  in
  if t.member_of.(v) <> None then None else chase v [] 0

let kill t ~time live =
  List.iter (fun v -> t.member_of.(v) <- None) live.l_members;
  t.alive <- t.alive - 1;
  t.resolved <- t.resolved + 1;
  t.finished_loop_seconds <-
    t.finished_loop_seconds +. (time -. live.l_birth);
  (t.last_loop_death <-
     match t.last_loop_death with
     | Some d when d >= time -> t.last_loop_death
     | _ -> Some time);
  if t.record then t.finished_rev <- to_loop live (Some time) :: t.finished_rev

let register t ~time ~trigger cycle =
  let live =
    { l_members = canonicalize cycle; l_birth = time; l_trigger = trigger }
  in
  List.iter (fun v -> t.member_of.(v) <- Some live) live.l_members;
  t.alive <- t.alive + 1;
  if t.alive > t.max_alive then t.max_alive <- t.alive;
  t.started <- t.started + 1;
  let sz = List.length live.l_members in
  t.sum_size <- t.sum_size + sz;
  if sz > t.max_size then t.max_size <- sz;
  if t.first_loop_birth = None then t.first_loop_birth <- Some time;
  live

let create ?(record = false) ~origin ~initial () =
  let n = Array.length initial in
  if origin < 0 || origin >= n then invalid_arg "Scanner.create: bad origin";
  let t =
    {
      origin;
      next_hop = Array.copy initial;
      member_of = Array.make n None;
      alive = 0;
      max_alive = 0;
      record;
      finished_rev = [];
      started = 0;
      resolved = 0;
      sum_size = 0;
      max_size = 0;
      finished_loop_seconds = 0.;
      first_loop_birth = None;
      last_loop_death = None;
    }
  in
  for v = 0 to n - 1 do
    if find_new_cycle t v <> None then
      invalid_arg "Scanner.create: starting state contains a loop"
  done;
  t

let observe ?(obs = Obs.Bus.off) ?prefix t ~time ~node ~next_hop =
  (match t.member_of.(node) with
  | Some live ->
      Obs.Bus.loop_resolved ?prefix obs ~time ~members:live.l_members;
      kill t ~time live
  | None -> ());
  t.next_hop.(node) <- next_hop;
  match find_new_cycle t node with
  | None -> ()
  | Some cycle ->
      let live = register t ~time ~trigger:node cycle in
      Obs.Bus.loop_detected ?prefix obs ~time ~members:live.l_members
        ~trigger:node

let live_loops t = t.alive

(* Each live loop once, in node order: members are canonical, so a
   loop is met first at its smallest member, the head of its list. *)
let iter_survivors t f =
  Array.iteri
    (fun v -> function
      | Some live when v = List.hd live.l_members -> f live
      | Some _ | None -> ())
    t.member_of

type totals = {
  loops_started : int;
  loops_resolved : int;
  live_now : int;
  max_concurrent : int;
  max_size : int;
  mean_size : float;
  total_loop_seconds : float;
  first_loop_birth : float option;
  last_loop_death : float option;
}

let last_loop_death t = if t.alive > 0 then None else t.last_loop_death

let totals t ~until =
  let survivor_seconds = ref 0. in
  iter_survivors t (fun live ->
      survivor_seconds := !survivor_seconds +. (until -. live.l_birth));
  {
    loops_started = t.started;
    loops_resolved = t.resolved;
    live_now = t.alive;
    max_concurrent = t.max_alive;
    max_size = t.max_size;
    mean_size =
      (if t.started = 0 then 0.
       else float_of_int t.sum_size /. float_of_int t.started);
    total_loop_seconds = t.finished_loop_seconds +. !survivor_seconds;
    first_loop_birth = t.first_loop_birth;
    last_loop_death = last_loop_death t;
  }

let report t =
  if not t.record then
    invalid_arg "Scanner.report: tracker was created without ~record:true";
  let survivors_rev = ref [] in
  iter_survivors t (fun live ->
      survivors_rev := to_loop live None :: !survivors_rev);
  (* finished loops in kill order, then survivors in node order; the
     stable sort keeps that order among equal (birth, members) *)
  let loops =
    List.stable_sort
      (fun a b -> compare (a.birth, a.members) (b.birth, b.members))
      (List.rev_append t.finished_rev (List.rev !survivors_rev))
  in
  {
    loops;
    first_loop_birth = t.first_loop_birth;
    last_loop_death = last_loop_death t;
    max_concurrent = t.max_alive;
  }

let scan ?obs ?prefix ~fib ~origin ~from () =
  let t =
    create ~record:true ~origin
      ~initial:(Netcore.Fib_history.snapshot fib ~before:from)
      ()
  in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      observe ?obs ?prefix t ~time:c.time ~node:c.node ~next_hop:c.next_hop)
    (Netcore.Fib_history.changes_from fib ~from);
  report t

type aggregate = {
  count : int;
  mean_size : float;
  max_size : int;
  mean_duration : float;
  max_duration : float;
  total_loop_seconds : float;
}

let aggregate report ~until =
  match report.loops with
  | [] ->
      {
        count = 0;
        mean_size = 0.;
        max_size = 0;
        mean_duration = 0.;
        max_duration = 0.;
        total_loop_seconds = 0.;
      }
  | loops ->
      let sizes = Array.of_list (List.map (fun l -> float_of_int (size l)) loops) in
      let durations = Array.of_list (List.map (fun l -> duration l ~until) loops) in
      {
        count = List.length loops;
        mean_size = Stats.Descriptive.mean sizes;
        max_size = int_of_float (Stats.Descriptive.max sizes);
        mean_duration = Stats.Descriptive.mean durations;
        max_duration = Stats.Descriptive.max durations;
        total_loop_seconds = Stats.Descriptive.sum durations;
      }

let pp_aggregate fmt a =
  Format.fprintf fmt
    "loops=%d mean_size=%.2f max_size=%d mean_dur=%.2fs max_dur=%.2fs total=%.2fs"
    a.count a.mean_size a.max_size a.mean_duration a.max_duration
    a.total_loop_seconds

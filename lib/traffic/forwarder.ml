type fate =
  | Delivered of { time : float; hops : int }
  | Ttl_exhausted of { time : float; at_node : int }
  | Unreachable of { time : float; at_node : int }

let fate_time = function
  | Delivered { time; _ } | Ttl_exhausted { time; _ } | Unreachable { time; _ }
    ->
      time

let pp_fate fmt = function
  | Delivered { time; hops } ->
      Format.fprintf fmt "delivered at %g after %d hops" time hops
  | Ttl_exhausted { time; at_node } ->
      Format.fprintf fmt "TTL exhausted at node %d, time %g" at_node time
  | Unreachable { time; at_node } ->
      Format.fprintf fmt "unreachable at node %d, time %g" at_node time

type plane = {
  n : int;
  first : int array;
      (** node [v]'s changes are [first.(v)] to [first.(v + 1) - 1] *)
  times : float array;
  next : int array;  (** next hop after each change; [-1] is "no route" *)
  cursor : int array;
      (** per node, the change last found in effect: only where a lookup
          starts scanning, so its value never changes a result *)
  until : float array;
      (** the hop log: a ring of [mask + 1 >= n] slots holding, per
          lookup a walk makes, the time of the node's next change after
          the one found ([infinity] if none) *)
  mask : int;
  seen : int array;  (** per node, the walk that last logged a lookup there *)
  at : int array;  (** per node, that lookup's log position *)
  mutable walks : int;  (** walks started on this plane *)
}

(* [sorted buf len] is [buf]'s first [len] floats (NaN-free) in
   ascending order, in a fresh array; [buf] is scratch.  A natural merge
   sort on unboxed floats ([Array.sort compare] boxes every element it
   compares): the input is a few ascending runs, one per source, so it
   makes few passes. *)
let sorted (buf : float array) len =
  let starts_run i = i = 0 || buf.(i) < buf.(i - 1) in
  let k = ref 0 in
  for i = 0 to len - 1 do
    if starts_run i then incr k
  done;
  (* run [r] is [\[runs.(r), runs.(r + 1))] *)
  let runs = Array.make (!k + 1) len and r = ref 0 in
  for i = 0 to len - 1 do
    if starts_run i then begin
      runs.(!r) <- i;
      incr r
    end
  done;
  let out = Array.make len 0. in
  let src = ref buf and dst = ref out in
  while !k > 1 do
    let s = !src and d = !dst and merged = ref 0 and r = ref 0 in
    while !r < !k do
      let lo = runs.(!r)
      and mid = runs.(Stdlib.min (!r + 1) !k)
      and hi = runs.(Stdlib.min (!r + 2) !k) in
      let i = ref lo and j = ref mid in
      for o = lo to hi - 1 do
        if !j >= hi || (!i < mid && s.(!i) <= s.(!j)) then begin
          d.(o) <- s.(!i);
          incr i
        end
        else begin
          d.(o) <- s.(!j);
          incr j
        end
      done;
      runs.(!merged) <- lo;
      incr merged;
      r := !r + 2
    done;
    runs.(!merged) <- len;
    k := !merged;
    src := d;
    dst := s
  done;
  if !src != out then Array.blit !src 0 out 0 len;
  out

let compile fib =
  let n = Netcore.Fib_history.n_nodes fib in
  let changes =
    Array.of_list (Netcore.Fib_history.changes_from fib ~from:neg_infinity)
  in
  let m = Array.length changes in
  let first = Array.make (n + 1) 0 in
  Array.iter
    (fun (c : Netcore.Fib_history.change) ->
      first.(c.node + 1) <- first.(c.node + 1) + 1)
    changes;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let times = Array.make m 0. and next = Array.make m (-1) in
  (* recording order is per-node chronological order *)
  let fill = Array.sub first 0 n in
  Array.iter
    (fun (c : Netcore.Fib_history.change) ->
      let i = fill.(c.node) in
      fill.(c.node) <- i + 1;
      times.(i) <- c.time;
      next.(i) <- Option.value c.next_hop ~default:(-1))
    changes;
  let slots = ref 1 in
  while !slots < n do
    slots := 2 * !slots
  done;
  {
    n;
    first;
    times;
    next;
    cursor = Array.init n (fun v -> first.(v) - 1);
    until = Array.make !slots infinity;
    mask = !slots - 1;
    seen = Array.make n 0;
    at = Array.make n 0;
    walks = 0;
  }

(* The largest [i] in [\[lo, hi)] with [a.(i) <= t], or [lo - 1] if
   none, for [a] ascending on [\[lo, hi)].  Exact from any start [i] in
   [\[lo - 1, hi)]; short when [i] answered a nearby time.  A NaN [t]
   finds [lo - 1], as a binary search does.  Inlined, so [t] stays
   unboxed. *)
let[@inline] seek (a : float array) ~lo ~hi i (t : float) =
  let i = ref i in
  while !i + 1 < hi && a.(!i + 1) <= t do
    incr i
  done;
  while !i >= lo && not (a.(!i) <= t) do
    decr i
  done;
  !i

(* The walk's clock.  The floats of the binade [\[lo, 2 lo)] of a
   positive normal [t] are the multiples of its ulp [u = lo 2^-52], so
   for [d >= 0] an addition [x +. d] whose sum stays below [2 lo] rounds
   to [x + D] with [D = round (d / u) u], the same for every [x] there.
   [binade t] is [lo], read off [t]'s exponent bits, and [stride lo t d]
   is [D], or NaN when [t] is not positive normal, when [d] is negative
   or NaN, when [d / u] is a half-integer (a tie rounds to the even
   multiple, so it depends on [x]) or when [d >= lo] (the first sum
   leaves the binade).  [d / u] is exact, and below [2^52] so are its
   truncation [q] and [d / u - q]. *)
let[@inline] binade t =
  Int64.float_of_bits
    (Int64.logand (Int64.bits_of_float t) 0x7FF0_0000_0000_0000L)

let[@inline] stride lo t d =
  let u = lo *. 0x1p-52 in
  let r = d /. u in
  if t >= min_float && d >= 0. && r < 0x1p52 then begin
    let q = Float.of_int (Float.to_int r) in
    let f = r -. q in
    if f < 0.5 then q *. u else if f > 0.5 then (q +. 1.) *. u else Float.nan
  end
  else Float.nan

(* [advance t d k] is [t] after [k] sequential [+. d] additions (none
   when [k <= 0]), bit for bit: [t + k D], computed exactly, while that
   stays below [2 lo]; otherwise, and whenever [stride] is NaN, the
   additions one by one.  Inlined, so nothing is boxed. *)
let[@inline] advance t d k =
  let lo = binade t in
  let s = t +. (Float.of_int k *. stride lo t d) in
  if k > 0 && s < 2. *. lo then s
  else begin
    let x = ref t in
    for _ = 1 to k do
      x := !x +. d
    done;
    !x
  end

let delivered = 0

let exhausted = 1

let unreachable = 2

(* A walk's outcome, written in place so the packet loop allocates
   nothing: [clock] holds the send time on entry, then the fate time and
   the earliest next change after any of the walk's lookups. *)
type probe = { clock : float array; mutable node : int; mutable hops : int }

(* One packet's walk; returns its fate code.  At node [v] and time [t]
   the packet takes [v]'s next hop as of [t] (the latest change at or
   before [t], the last recorded on ties).

   Each lookup is logged with the time of the node's next change after
   the one it found: until then the lookup's answer stands.  When the
   packet comes back to a node, the lookups since its last visit there
   form a lap that leads back to it, and the next lap repeats it node for
   node as long as each of its lookups falls before the earliest of those
   next changes.  The walk then jumps the most whole laps that keep every
   lookup before that time, within the TTL, with [advance] making the
   clock the hops would have made.  A lap of [n] or more lookups repeats
   a node, and to get back to [v] the walk must then have left the cycle
   it had just closed: one of the lap's lookups answered otherwise than
   an earlier one at the same node, so it came at or after the change
   that one logged.  Such a lap never jumps, and the log keeps only the
   last [mask + 1 >= n] lookups.  After a try, the next waits until the
   clock reaches the change that bounded it: a lap cut short by a change
   is scanned once, not again at every hop until the change.

   The walk also keeps the earliest of all its lookups' next changes,
   the last routeless one included, for [streams]; a jumped lookup
   finds what the lap's lookup at its node found, so it adds nothing. *)
let walk_packet p probe ~origin ~link_delay ~ttl ~src =
  let node = ref src and hops = ref 0 and code = ref (-1) in
  let time = ref probe.clock.(0) and bound = ref infinity in
  p.walks <- p.walks + 1;
  let walk = p.walks and logged = ref 0 and hold = ref neg_infinity in
  while !code < 0 do
    let v = !node in
    if v = origin then code := delivered
    else if !hops = ttl then code := exhausted
    else begin
      let lap = !logged - p.at.(v) and laps = ref 0 in
      if
        p.seen.(v) = walk && !time >= !hold && lap < p.n && ttl - !hops >= lap
      then begin
        let change = ref infinity in
        for i = p.at.(v) to !logged - 1 do
          let c = p.until.(i land p.mask) in
          if c < !change then change := c
        done;
        hold := !change;
        (* the most laps [j] whose last lookup, [j lap - 1] hops on,
           still falls before the change.  The clock moves [D] a hop, so
           that is about [((change - t) / D + 1) / lap], which one or two
           probes confirm.  Otherwise [j] doubles while the laps fit, so
           that no probe runs far past the answer whatever the TTL, and
           then bisects. *)
        let most = ref ((ttl - !hops) / lap) and bisect = ref false in
        let step = stride (binade !time) !time link_delay in
        let e =
          (((!change -. !time) /. if step >= 0. then step else link_delay)
          +. 1.)
          /. Float.of_int lap
        in
        let j =
          if e >= Float.of_int !most then !most
          else if e >= 1. then Float.to_int e
          else 0
        in
        if j > 0 && not (advance !time link_delay ((j * lap) - 1) < !change)
        then most := j - 1
        else if
          j < !most
          && advance !time link_delay (((j + 1) * lap) - 1) < !change
        then laps := j + 1
        else begin
          laps := j;
          most := j
        end;
        while !laps < !most do
          let j =
            if !bisect then !most - ((!most - !laps) / 2)
            else if !laps >= !most / 2 then !most
            else (2 * !laps) + 1
          in
          if advance !time link_delay ((j * lap) - 1) < !change then laps := j
          else begin
            most := j - 1;
            bisect := true
          end
        done
      end;
      if !laps > 0 then begin
        (* back at [v]: the next turn checks the TTL *)
        hops := !hops + (!laps * lap);
        time := advance !time link_delay (!laps * lap)
      end
      else begin
        let lo = p.first.(v) and hi = p.first.(v + 1) in
        let c = seek p.times ~lo ~hi p.cursor.(v) !time in
        p.cursor.(v) <- c;
        let until = if c + 1 < hi then p.times.(c + 1) else infinity in
        if until < !bound then bound := until;
        let hop = if c < lo then -1 else p.next.(c) in
        if hop < 0 then code := unreachable
        else begin
          p.until.(!logged land p.mask) <- until;
          p.seen.(v) <- walk;
          p.at.(v) <- !logged;
          incr logged;
          node := hop;
          time := !time +. link_delay;
          incr hops
        end
      end
    end
  done;
  probe.clock.(0) <- !time;
  probe.clock.(1) <- !bound;
  probe.node <- !node;
  probe.hops <- !hops;
  !code

let check_walk ~fn ~link_delay ~ttl =
  if ttl <= 0 then invalid_arg (fn ^ ": ttl <= 0");
  if not (link_delay > 0. && Float.is_finite link_delay) then
    invalid_arg (fn ^ ": link_delay must be finite and > 0")

let walk p ~origin ~link_delay ~ttl ~src ~send_time =
  check_walk ~fn:"Forwarder.walk" ~link_delay ~ttl;
  if src <> origin && (src < 0 || src >= p.n) then
    invalid_arg (Printf.sprintf "Forwarder.walk: node %d out of range" src);
  let probe = { clock = Array.make 2 send_time; node = src; hops = 0 } in
  let code = walk_packet p probe ~origin ~link_delay ~ttl ~src in
  let time = probe.clock.(0) in
  if code = delivered then Delivered { time; hops = probe.hops }
  else if code = exhausted then Ttl_exhausted { time; at_node = probe.node }
  else Unreachable { time; at_node = probe.node }

type tally = {
  sources : int array;
  sent : int array;
  delivered : int array;
  unreachable : int array;
  exhausted : int array;
  sent_for_ratio : int;
  drops : float array;
}

let streams p ~origin ~n ~link_delay ~ttl ~rate ~window:(t0, t1) ~seed
    ?ratio_cutoff ?sources () =
  if not (rate > 0. && Float.is_finite rate) then
    invalid_arg "Forwarder.streams: rate must be finite and > 0";
  if not (Float.is_finite t0 && Float.is_finite t1 && t0 <= t1) then
    invalid_arg "Forwarder.streams: window must be finite, start <= end";
  let interval = 1. /. rate in
  (* [+. interval] moves the send clock anywhere in [\[t0, t1)] when it
     is more than half the float spacing at the window end of largest
     magnitude, the widest there; exactly half is a tie, which may round
     back to the clock *)
  let far = Float.max (Float.abs t0) (Float.abs t1) in
  if not (interval > (Float.succ far -. far) /. 2. && Float.is_finite interval)
  then
    invalid_arg "Forwarder.streams: 1 / rate does not advance the send clock";
  check_walk ~fn:"Forwarder.streams" ~link_delay ~ttl;
  let ratio_cutoff = Option.value ratio_cutoff ~default:t1 in
  let sources =
    match sources with
    | Some l ->
        List.iter
          (fun s ->
            if s = origin then invalid_arg "Forwarder.streams: source = origin")
          l;
        Array.of_list l
    | None ->
        Array.of_list (List.filter (fun v -> v <> origin) (List.init n Fun.id))
  in
  Array.iter
    (fun s ->
      if s < 0 || s >= Stdlib.min n p.n then
        invalid_arg "Forwarder.streams: source out of range")
    sources;
  let k = Array.length sources in
  let rng = Dessim.Rng.create ~seed in
  let phases = Array.init k (fun _ -> Dessim.Rng.float rng interval) in
  (* each source's packet count, by the sums the loop below makes; their
     total sizes the exhaustion buffer, so it never grows *)
  let sent =
    Array.map
      (fun phase ->
        let count = ref 0 and time = ref (t0 +. phase) in
        while !time < t1 do
          incr count;
          time := !time +. interval
        done;
        !count)
      phases
  in
  let delivered_n = Array.make k 0
  and unreachable_n = Array.make k 0
  and exhausted_n = Array.make k 0 in
  let sent_for_ratio = ref 0 in
  let drops = Array.make (Array.fold_left ( + ) 0 sent) 0.
  and n_drops = ref 0 in
  let probe = { clock = Array.make 2 0.; node = 0; hops = 0 } in
  for i = 0 to k - 1 do
    let src = sources.(i) in
    let time = ref (t0 +. phases.(i)) in
    (* the source's last walk: its fate code, its lookup count and the
       earliest next change after any of its lookups *)
    let memo_code = ref 0 and memo_lookups = ref 0 in
    let memo_until = ref neg_infinity in
    while !time < t1 do
      let send = !time in
      if send < ratio_cutoff then incr sent_for_ratio;
      (* A packet sent later looks up the memo's nodes in turn, each at
         or after the memo's lookup there: while its last lookup falls
         before the memo's earliest next change, every lookup finds what
         the memo's found and the packet meets the memo's fate.  Only
         its clock differs, and [advance] gives the times the walk's
         additions would. *)
      let last = advance send link_delay (!memo_lookups - 1) in
      let code = ref !memo_code and drop_time = ref (last +. link_delay) in
      if not (last < !memo_until) then begin
        probe.clock.(0) <- send;
        code := walk_packet p probe ~origin ~link_delay ~ttl ~src;
        drop_time := probe.clock.(0);
        memo_code := !code;
        (* an unreachable walk's last lookup found no next hop *)
        memo_lookups :=
          if !code = unreachable then probe.hops + 1 else probe.hops;
        memo_until := probe.clock.(1)
      end;
      if !code = delivered then delivered_n.(i) <- delivered_n.(i) + 1
      else if !code = exhausted then begin
        exhausted_n.(i) <- exhausted_n.(i) + 1;
        drops.(!n_drops) <- !drop_time;
        incr n_drops
      end
      else unreachable_n.(i) <- unreachable_n.(i) + 1;
      time := !time +. interval
    done
  done;
  {
    sources;
    sent;
    delivered = delivered_n;
    unreachable = unreachable_n;
    exhausted = exhausted_n;
    sent_for_ratio = !sent_for_ratio;
    drops = sorted drops !n_drops;
  }

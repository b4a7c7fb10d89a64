type result = {
  sent : int;
  sent_for_ratio : int;
  delivered : int;
  unreachable : int;
  exhausted : int;
  first_exhaustion : float option;
  last_exhaustion : float option;
  exhaustion_times : float array;
}

let overall_looping_duration r =
  match (r.first_exhaustion, r.last_exhaustion) with
  | Some first, Some last -> last -. first
  | _ -> 0.

let looping_ratio r =
  if r.sent_for_ratio = 0 then 0.
  else float_of_int r.exhausted /. float_of_int r.sent_for_ratio

let run ~fib ~origin ~n ~link_delay ~ttl ~rate ~window ~seed ?ratio_cutoff
    ?sources () =
  let t =
    Forwarder.streams (Forwarder.compile fib) ~origin ~n ~link_delay ~ttl ~rate
      ~window ~seed ?ratio_cutoff ?sources ()
  in
  let sum = Array.fold_left ( + ) 0 in
  let exhaustion_times = t.drops in
  let count = Array.length exhaustion_times in
  {
    sent = sum t.sent;
    sent_for_ratio = t.sent_for_ratio;
    delivered = sum t.delivered;
    unreachable = sum t.unreachable;
    exhausted = sum t.exhausted;
    first_exhaustion = (if count = 0 then None else Some exhaustion_times.(0));
    last_exhaustion =
      (if count = 0 then None else Some exhaustion_times.(count - 1));
    exhaustion_times;
  }

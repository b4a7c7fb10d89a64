type stats = {
  src : int;
  sent : int;
  delivered : int;
  unreachable : int;
  exhausted : int;
}

let looping_ratio s =
  if s.sent = 0 then 0. else float_of_int s.exhausted /. float_of_int s.sent

let run ~fib ~origin ~n ~link_delay ~ttl ~rate ~window ~seed ?sources () =
  let t =
    Forwarder.streams (Forwarder.compile fib) ~origin ~n ~link_delay ~ttl ~rate
      ~window ~seed ?sources ()
  in
  List.init (Array.length t.sources) (fun i ->
      {
        src = t.sources.(i);
        sent = t.sent.(i);
        delivered = t.delivered.(i);
        unreachable = t.unreachable.(i);
        exhausted = t.exhausted.(i);
      })
  |> List.sort (fun a b -> compare a.src b.src)

let affected stats =
  List.filter_map (fun s -> if s.exhausted > 0 then Some s.src else None) stats

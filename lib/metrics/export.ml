let fib_changes_csv fib ~from =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,node,next_hop\n";
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%d,%s\n" c.time c.node
           (match c.next_hop with None -> "" | Some v -> string_of_int v)))
    (Netcore.Fib_history.changes_from fib ~from);
  Buffer.contents buf

let sends_csv events ~from =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,src,dst,kind\n";
  List.iter
    (function
      | Obs.Event.Update_sent { time; src; dst; withdraw; _ }
        when time >= from ->
          Buffer.add_string buf
            (Printf.sprintf "%.6f,%d,%d,%s\n" time src dst
               (if withdraw then "withdraw" else "announce"))
      | _ -> ())
    events;
  Buffer.contents buf

let loops_csv (report : Loopscan.Scanner.report) ~until =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "birth,death,duration,size,trigger,members\n";
  List.iter
    (fun (l : Loopscan.Scanner.loop) ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%s,%.6f,%d,%d,%s\n" l.birth
           (match l.death with None -> "" | Some d -> Printf.sprintf "%.6f" d)
           (Loopscan.Scanner.duration l ~until)
           (Loopscan.Scanner.size l) l.trigger
           (String.concat ";" (List.map string_of_int l.members))))
    report.loops;
  Buffer.contents buf

let series_csv ~x_label series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (x_label
    ^ ",convergence_time,overall_looping_duration,ttl_exhaustions,packets_sent,looping_ratio,updates_sent,withdrawals_sent,loop_count\n"
    );
  List.iter
    (fun (x, (m : Run_metrics.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "%g,%.4f,%.4f,%d,%d,%.6f,%d,%d,%d\n" x
           m.convergence_time m.overall_looping_duration m.ttl_exhaustions
           m.packets_sent m.looping_ratio m.updates_sent m.withdrawals_sent
           m.loop_count))
    series;
  Buffer.contents buf

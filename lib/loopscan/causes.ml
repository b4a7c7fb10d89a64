type cause = Withdrawal_triggered | Announcement_triggered | Session_triggered

let cause_name = function
  | Withdrawal_triggered -> "withdrawal"
  | Announcement_triggered -> "announcement"
  | Session_triggered -> "session-event"

(* The last message [node] finished processing no later than [at], as
   (time, withdraw); among equal times the later event wins, since its
   processing completed last. *)
let last_recv events ~node ~at =
  List.fold_left
    (fun last ev ->
      match ev with
      | Obs.Event.Update_recv { time; node = n; withdraw; _ }
        when n = node && time <= at -> (
          match last with
          | Some (t, _) when time < t -> last
          | Some _ | None -> Some (time, withdraw))
      | _ -> last)
    None events

let classify ~events report =
  let cause_of (l : Scanner.loop) =
    match last_recv events ~node:l.trigger ~at:l.birth with
    (* bgpsim-lint: allow D004 — identity check: both times are the engine clock at one instant *)
    | Some (time, withdraw) when time = l.birth ->
        (* the FIB change happened at the instant this message finished
           processing: it is the trigger *)
        if withdraw then Withdrawal_triggered else Announcement_triggered
    | Some _ | None ->
        (* no message completed at the birth instant: the node reacted
           to a local event (its own session going down) *)
        Session_triggered
  in
  List.map (fun l -> (l, cause_of l)) report.Scanner.loops

type breakdown = {
  withdrawal_triggered : int;
  announcement_triggered : int;
  session_triggered : int;
}

let breakdown classified =
  List.fold_left
    (fun acc (_, cause) ->
      match cause with
      | Withdrawal_triggered ->
          { acc with withdrawal_triggered = acc.withdrawal_triggered + 1 }
      | Announcement_triggered ->
          { acc with announcement_triggered = acc.announcement_triggered + 1 }
      | Session_triggered ->
          { acc with session_triggered = acc.session_triggered + 1 })
    { withdrawal_triggered = 0; announcement_triggered = 0; session_triggered = 0 }
    classified

let pp_breakdown fmt b =
  Format.fprintf fmt
    "triggers: %d by withdrawal, %d by announcement, %d by session event"
    b.withdrawal_triggered b.announcement_triggered b.session_triggered

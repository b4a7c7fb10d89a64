(* Wall-clock budget tracking for long-running simulations.

   A watchdog is armed at creation and answers "has the budget
   expired?" from then on.  It deliberately has no preemption: callers
   poll [expired] at natural safepoints (between engine chunks, at
   epoch boundaries) so that expiry always lands at a consistent
   state, never mid-event.

   The clock is injectable so tests can drive expiry deterministically
   without sleeping. *)

type t = {
  clock : unit -> float;
  started : float;
  max_wall_s : float option;
}

let create ?clock ?max_wall_s () =
  let clock = match clock with Some f -> f | None -> Unix.gettimeofday in
  { clock; started = clock (); max_wall_s }

let unlimited = create ~clock:(fun () -> 0.) ()

let expired t =
  match t.max_wall_s with
  | None -> false
  | Some budget -> t.clock () -. t.started >= budget

(* Individual-loop statistics — the paper's stated future work ("we
   plan to examine route change traces to measure the statistics of
   individual loops such as the loop size and duration"), implemented
   on top of the loop scanner.

     dune exec examples/loop_anatomy.exe *)

let () =
  let spec =
    Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Internet 110)
  in
  Format.printf
    "T_down on a 110-node Internet-derived topology: dissecting every@.\
     individual transient loop.@.@.";
  (* the trigger classification below reads which message each router
     finished processing when: the run's Update_recv events *)
  let recvs = ref [] in
  let sink =
    Obs.Sink.fn (function
      | Obs.Event.Update_recv _ as ev -> recvs := ev :: !recvs
      | _ -> ())
  in
  let run = Bgpsim.Experiment.run ~obs:(Obs.Bus.create ~sink ()) spec in
  let until = run.outcome.convergence_end +. spec.replay_tail in
  let agg = Loopscan.Scanner.aggregate run.loops ~until in
  Format.printf "%a@.@." Loopscan.Scanner.pp_aggregate agg;
  (* size distribution *)
  let sizes = Stats.Histogram.create ~lo:2. ~hi:8. ~buckets:6 in
  let durations = Stats.Histogram.create ~lo:0. ~hi:60. ~buckets:12 in
  List.iter
    (fun l ->
      Stats.Histogram.add sizes (float_of_int (Loopscan.Scanner.size l));
      Stats.Histogram.add durations (Loopscan.Scanner.duration l ~until))
    run.loops.loops;
  Format.printf "Loop sizes (nodes):@.%a@." Stats.Histogram.pp sizes;
  Format.printf "Loop durations (seconds):@.%a@." Stats.Histogram.pp durations;
  (* Hengartner et al. observed that more than half of the loops seen in
     an ISP involved only two nodes; check the same on our trace. *)
  let two_node =
    List.length
      (List.filter (fun l -> Loopscan.Scanner.size l = 2) run.loops.loops)
  in
  let total = List.length run.loops.loops in
  if total > 0 then
    Format.printf
      "@.%d of %d loops (%.0f%%) involve exactly two nodes — compare@.\
       Hengartner et al.'s \"more than half of the loops involved only two@.\
       nodes\".@."
      two_node total
      (100. *. float_of_int two_node /. float_of_int total);
  (* what triggered each loop: the node falling back after a withdrawal
     (the paper's Fig 1 mechanism), after an announcement, or after its
     own session died *)
  let classified =
    Loopscan.Causes.classify ~events:(List.rev !recvs) run.loops
  in
  Format.printf "@.%a@." Loopscan.Causes.pp_breakdown
    (Loopscan.Causes.breakdown classified);
  Format.printf "@.Longest-lived loops:@.";
  let by_duration =
    List.sort
      (fun a b ->
        compare
          (Loopscan.Scanner.duration b ~until)
          (Loopscan.Scanner.duration a ~until))
      run.loops.loops
  in
  List.iteri
    (fun i l ->
      if i < 5 then Format.printf "  %a@." Loopscan.Scanner.pp_loop l)
    by_duration

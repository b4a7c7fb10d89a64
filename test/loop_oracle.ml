(* Brute-force oracle for the loop tracker (Loopscan.Scanner), shared by
   test_loopscan and test_differential.

   It knows nothing of the tracker's invariant (that a change at [v] can
   only kill [v]'s loop and only create a loop through [v]).  After
   every change it recomputes every forwarding cycle from scratch —
   walking at most n hops from each node and stopping at the origin or
   a routeless node — and diffs the new cycle set with the old one: a
   cycle that disappeared died at the change's time, and one that
   appeared was born then, triggered by the changed node. *)

(* Every cycle of [state], each once and canonical (starting at its
   smallest member), in order of that member. *)
let cycles ~origin state =
  let n = Array.length state in
  let found = ref [] in
  for v = n - 1 downto 0 do
    let rec walk node hops acc =
      if hops > n || node = origin then None
      else
        match state.(node) with
        | None -> None
        | Some next ->
            if next = v then Some (List.rev (node :: acc))
            else walk next (hops + 1) (node :: acc)
    in
    match walk v 0 [] with
    | Some cycle when List.for_all (fun u -> u >= v) cycle ->
        found := cycle :: !found
    | Some _ | None -> ()
  done;
  !found

(* The report {!Loopscan.Scanner.scan} documents, computed by brute
   force over the same inputs. *)
let scan ~fib ~origin ~from : Loopscan.Scanner.report =
  let state = Netcore.Fib_history.snapshot fib ~before:from in
  if cycles ~origin state <> [] then
    invalid_arg "Loop_oracle.scan: starting state contains a loop";
  (* live cycles as (members, birth, trigger), in order of smallest
     member; finished loops newest first *)
  let live = ref [] and finished_rev = ref [] and max_concurrent = ref 0 in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      state.(c.node) <- c.next_hop;
      let now = cycles ~origin state in
      List.iter
        (fun (members, birth, trigger) ->
          if not (List.mem members now) then
            finished_rev :=
              { Loopscan.Scanner.members; birth; death = Some c.time; trigger }
              :: !finished_rev)
        !live;
      live :=
        List.map
          (fun members ->
            match List.find_opt (fun (m, _, _) -> m = members) !live with
            | Some old -> old
            | None -> (members, c.time, c.node))
          now;
      max_concurrent := Stdlib.max !max_concurrent (List.length now))
    (Netcore.Fib_history.changes_from fib ~from);
  let survivors =
    List.map
      (fun (members, birth, trigger) ->
        { Loopscan.Scanner.members; birth; death = None; trigger })
      !live
  in
  let loops =
    List.stable_sort
      (fun (a : Loopscan.Scanner.loop) (b : Loopscan.Scanner.loop) ->
        compare (a.birth, a.members) (b.birth, b.members))
      (List.rev_append !finished_rev survivors)
  in
  let deaths = List.filter_map (fun (l : Loopscan.Scanner.loop) -> l.death) loops in
  {
    loops;
    first_loop_birth =
      (match loops with [] -> None | l :: _ -> Some l.birth);
    last_loop_death =
      (if loops = [] || survivors <> [] then None
       else Some (List.fold_left Float.max neg_infinity deaths));
    max_concurrent = !max_concurrent;
  }

(* Exact-float rendering of one loop, for list diffs in test output. *)
let loop_repr (l : Loopscan.Scanner.loop) =
  Printf.sprintf "members=%s trigger=%d birth=%h death=%s"
    (String.concat "," (List.map string_of_int l.members))
    l.trigger l.birth
    (match l.death with None -> "alive" | Some d -> Printf.sprintf "%h" d)

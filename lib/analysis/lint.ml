type severity = Error | Warning | Info

type issue = { severity : severity; code : string; message : string }

type partition = { from_ : float; until : float option; nodes : int list }

type report = {
  issues : issue list;
  partitions : partition list;
  steps_analyzed : int;
  random_clauses : int;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let errors r = List.filter (fun i -> i.severity = Error) r.issues

let has_errors r = errors r <> []

let norm (a, b) = if a <= b then (a, b) else (b, a)

let link_str (a, b) = Printf.sprintf "(%d,%d)" a b

(* Group the (time-sorted) steps into same-instant batches. *)
let group_by_time steps =
  List.fold_left
    (fun groups (s : Faults.Scenario.step) ->
      match groups with
      (* bgpsim-lint: allow D004 — same-instant grouping; equal times are copies of one value *)
      | (t, batch) :: rest when t = s.at -> (t, s :: batch) :: rest
      | _ -> (s.at, [ s ]) :: groups)
    [] steps
  |> List.rev_map (fun (t, batch) -> (t, List.rev batch))

let lint (scenario : Faults.Scenario.t) ~graph ~origin =
  let n = Topo.Graph.n_nodes graph in
  if origin < 0 || origin >= n then
    invalid_arg "Lint.lint: origin out of range";
  let resolution = Faults.Scenario.resolution_issues scenario ~graph in
  if resolution <> [] then
    (* no expansion: an unresolved clause (e.g. a storm count over the
       cap) may not be expandable in bounded memory *)
    {
      issues =
        List.map
          (fun m -> { severity = Error; code = "dangling-ref"; message = m })
          resolution;
      partitions = [];
      steps_analyzed = 0;
      random_clauses =
        List.length
          (List.filter
             (function
               | Faults.Scenario.Random_link_failures _ -> true | _ -> false)
             scenario.specs);
    }
  else begin
    let steps, random_clauses = Faults.Scenario.expand_deterministic scenario in
    let issues = ref [] in
    let issue severity code fmt =
      Printf.ksprintf
        (fun message -> issues := { severity; code; message } :: !issues)
        fmt
    in
    if random_clauses > 0 then
      issue Info "random-unanalyzed"
        "%d random failure clause(s) not statically analyzed (their \
         expansion is seed-dependent)"
        random_clauses;
    (* symbolic link/node state *)
    let failed = Hashtbl.create 16 in
    let crashed = Array.make n false in
    let apply at (action : Faults.Scenario.action) =
      match action with
      | Link_fail l ->
          let key = norm l in
          if Hashtbl.mem failed key then
            issue Warning "shadowed-fail"
              "link %s fails at t=%g but is already down (shadowed epoch)"
              (link_str l) at
          else Hashtbl.replace failed key ()
      | Link_recover l ->
          let key = norm l in
          if not (Hashtbl.mem failed key) then
            issue Warning "spurious-recover"
              "link %s recovers at t=%g but is already up" (link_str l) at
          else Hashtbl.remove failed key
      | Node_crash v ->
          if crashed.(v) then
            issue Warning "double-crash"
              "node %d crashes at t=%g but is already down" v at
          else begin
            crashed.(v) <- true;
            if v = origin then
              issue Info "origin-crash"
                "the origin crashes at t=%g: the destination is withdrawn \
                 until it restarts"
                at
          end
      | Node_restart v ->
          if not crashed.(v) then
            issue Warning "spurious-restart"
              "node %d restarts at t=%g but never crashed" v at
          else crashed.(v) <- false
      | Session_reset l ->
          if Hashtbl.mem failed (norm l) then
            issue Warning "dead-session-reset"
              "session reset on link %s at t=%g has no effect: the link is \
               down"
              (link_str l) at
    in
    (* same-instant conflicts: a fail and a recover of one link (or a
       crash and a restart of one node) at the same time depend on
       declaration order — almost always a script bug *)
    let batch_conflicts at batch =
      let touches f =
        List.filter_map (fun (s : Faults.Scenario.step) -> f s.action) batch
      in
      let fails =
        touches (function
          | Faults.Scenario.Link_fail l -> Some (norm l)
          | _ -> None)
      and recovers =
        touches (function
          | Faults.Scenario.Link_recover l -> Some (norm l)
          | _ -> None)
      in
      List.iter
        (fun l ->
          if List.mem l recovers then
            issue Warning "overlapping-epoch"
              "link %s both fails and recovers at t=%g (order-dependent \
               epoch)"
              (link_str l) at)
        fails;
      let crashes =
        touches (function Faults.Scenario.Node_crash v -> Some v | _ -> None)
      and restarts =
        touches (function
          | Faults.Scenario.Node_restart v -> Some v
          | _ -> None)
      in
      List.iter
        (fun v ->
          if List.mem v restarts then
            issue Warning "overlapping-epoch"
              "node %d both crashes and restarts at t=%g (order-dependent \
               epoch)"
              v at)
        crashes
    in
    (* cut analysis: after every instant, which live nodes are provably
       partitioned from the origin? *)
    let unreachable_now () =
      let blocked_nodes =
        List.filter (fun v -> crashed.(v)) (List.init n Fun.id)
      in
      (* bgpsim-lint: allow D001 — Graph.reachable consumes this as a set *)
      let blocked_links = Hashtbl.fold (fun l () acc -> l :: acc) failed [] in
      let reach =
        Topo.Graph.reachable graph ~from:origin ~blocked_nodes ~blocked_links
          ()
      in
      List.filter
        (fun v -> v <> origin && (not crashed.(v)) && not reach.(v))
        (List.init n Fun.id)
    in
    let partitions = ref [] in
    let current = ref None in
    let observe t =
      let u = unreachable_now () in
      match (!current, u) with
      | None, [] -> ()
      | None, u -> current := Some (t, u)
      | Some (t0, acc), [] ->
          partitions := { from_ = t0; until = Some t; nodes = acc } :: !partitions;
          current := None
      | Some (t0, acc), u ->
          current :=
            Some (t0, List.sort_uniq compare (List.rev_append acc u))
    in
    let groups = group_by_time steps in
    List.iter
      (fun (t, batch) ->
        batch_conflicts t batch;
        List.iter (fun (s : Faults.Scenario.step) -> apply t s.action) batch;
        observe t)
      groups;
    (match !current with
    | None -> ()
    | Some (t0, acc) ->
        partitions := { from_ = t0; until = None; nodes = acc } :: !partitions);
    let partitions = List.rev !partitions in
    List.iter
      (fun p ->
        let nodes = String.concat "," (List.map string_of_int p.nodes) in
        match p.until with
        | Some t1 ->
            issue Info "partition"
              "node(s) %s predicted unreachable from the origin during \
               [%g, %g)"
              nodes p.from_ t1
        | None ->
            issue Warning "permanent-partition"
              "node(s) %s predicted unreachable from the origin from t=%g \
               with no scripted recovery"
              nodes p.from_)
      partitions;
    {
      issues = List.rev !issues;
      partitions;
      steps_analyzed = List.length steps;
      random_clauses;
    }
  end

let pp fmt r =
  Format.fprintf fmt "lint: %d error(s), %d warning(s), %d info"
    (List.length (List.filter (fun i -> i.severity = Error) r.issues))
    (List.length (List.filter (fun i -> i.severity = Warning) r.issues))
    (List.length (List.filter (fun i -> i.severity = Info) r.issues));
  Format.fprintf fmt " (%d step(s) analyzed, %d random clause(s))"
    r.steps_analyzed r.random_clauses;
  List.iter
    (fun i ->
      Format.fprintf fmt "@\n  %-7s [%s] %s" (severity_name i.severity) i.code
        i.message)
    r.issues

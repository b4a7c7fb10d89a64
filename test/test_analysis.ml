(* Tests for the static pre-flight analyzer: SPVP dispute-digraph
   safety verdicts, scenario linting, convergence-bound certification,
   and the wiring through the experiment driver — including the
   property that a config the analyzer certifies Safe actually
   converges within its certified static bound. *)

module A = Analysis
module S = Faults.Scenario

let tc name f = Alcotest.test_case name `Quick f

let chain n =
  Topo.Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

(* --- SPVP safety verdicts --- *)

let test_bad_gadget_unsafe () =
  let i = A.Fixtures.bad_gadget () in
  let r = A.Spvp.analyze ~graph:i.graph ~policy:i.policy ~origin:i.origin () in
  match r.verdict with
  | A.Spvp.Unsafe w ->
      Alcotest.(check bool) "nonempty witness" true (w.cycle <> []);
      List.iter
        (fun (p, _) ->
          Alcotest.(check bool) "cycle paths end at the origin" true
            (List.rev p |> function 0 :: _ -> true | _ -> false))
        w.cycle
  | _ -> Alcotest.failf "expected Unsafe, got %s" (A.Spvp.verdict_name r.verdict)

let test_good_gadget_safe () =
  let i = A.Fixtures.good_gadget () in
  let r = A.Spvp.analyze ~graph:i.graph ~policy:i.policy ~origin:i.origin () in
  match r.verdict with
  | A.Spvp.Safe (A.Spvp.Acyclic_dispute_digraph { paths; _ }) ->
      Alcotest.(check int) "permitted paths" 16 paths
  | _ -> Alcotest.failf "expected Safe, got %s" (A.Spvp.verdict_name r.verdict)

let test_clique5_safe_with_expected_enumeration () =
  let graph = Topo.Generators.clique 5 in
  let r =
    A.Spvp.analyze ~graph ~policy:Bgp.Policy.shortest_path ~origin:0 ()
  in
  Alcotest.(check string) "verdict" "safe" (A.Spvp.verdict_name r.verdict);
  match r.enumeration with
  | None -> Alcotest.fail "expected a completed enumeration"
  | Some e ->
      Alcotest.(check int) "total permitted paths" 65 e.total;
      (* per non-origin node: sum_(k=0..3) P(3,k) = 1+3+6+6 *)
      Alcotest.(check int) "paths at node 1" 16
        (List.length e.per_node.(1))

let test_chain_depth_exact () =
  let graph = chain 6 in
  let r =
    A.Spvp.analyze ~graph ~policy:Bgp.Policy.shortest_path ~origin:0 ()
  in
  Alcotest.(check string) "verdict" "safe" (A.Spvp.verdict_name r.verdict);
  match r.enumeration with
  | None -> Alcotest.fail "expected enumeration"
  | Some e ->
      Alcotest.(check int) "one path per node" 6 e.total;
      let depth =
        Array.fold_left
          (fun acc ps ->
            List.fold_left
              (fun acc p -> Stdlib.max acc (List.length p - 1))
              acc ps)
          0 e.per_node
      in
      Alcotest.(check int) "longest path has 5 hops" 5 depth

let test_enumeration_budget_unknown () =
  let graph = Topo.Generators.clique 5 in
  let r =
    A.Spvp.analyze ~max_paths:3 ~graph ~policy:Bgp.Policy.shortest_path
      ~origin:0 ()
  in
  match r.verdict with
  | A.Spvp.Unknown _ -> ()
  | v -> Alcotest.failf "expected Unknown, got %s" (A.Spvp.verdict_name v)

let test_disconnected_nodes_reported () =
  let graph = Topo.Graph.create ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let r =
    A.Spvp.analyze ~graph ~policy:Bgp.Policy.shortest_path ~origin:0 ()
  in
  Alcotest.(check (list int)) "nodes 2,3 can never learn a route" [ 2; 3 ]
    r.unreachable

(* --- Gao-Rexford conformance --- *)

let hierarchy_rel a b =
  (* node 0 is everyone's provider; others are mutual peers *)
  if a = 0 then Bgp.Policy.Customer
  else if b = 0 then Bgp.Policy.Provider
  else Bgp.Policy.Peer_rel

let test_gao_rexford_conformant () =
  let graph = Topo.Generators.clique 4 in
  (match A.Spvp.check_gao_rexford ~graph ~rel:hierarchy_rel with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected conformant, got: %s" msg);
  (* budget-blown enumeration falls back to the GR certificate *)
  let r =
    A.Spvp.analyze ~max_paths:2 ~gr_rel:hierarchy_rel ~graph
      ~policy:(Bgp.Policy.gao_rexford ~rel:hierarchy_rel) ~origin:0 ()
  in
  match r.verdict with
  | A.Spvp.Safe A.Spvp.Gao_rexford_conformant -> ()
  | v ->
      Alcotest.failf "expected GR certificate, got %s" (A.Spvp.verdict_name v)

let test_gao_rexford_rejects_inconsistent_and_cyclic () =
  let graph = Topo.Generators.clique 3 in
  (* inconsistent: both ends claim the other is their customer *)
  (match
     A.Spvp.check_gao_rexford ~graph ~rel:(fun _ _ -> Bgp.Policy.Customer)
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inconsistent views must be rejected");
  (* consistent but cyclic: 0 -> 1 -> 2 -> 0 in the provider digraph *)
  let cyclic a b =
    if (a + 1) mod 3 = b then Bgp.Policy.Customer else Bgp.Policy.Provider
  in
  match A.Spvp.check_gao_rexford ~graph ~rel:cyclic with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a provider-customer cycle must be rejected"

(* --- scenario lint --- *)

let ring5 = Topo.Graph.create ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]

let codes report = List.map (fun (i : A.Lint.issue) -> i.code) report.A.Lint.issues

let test_lint_dangling_link () =
  let sc = S.make [ S.At (1., S.Link_fail (0, 9)) ] in
  let r = A.Lint.lint sc ~graph:ring5 ~origin:0 in
  Alcotest.(check bool) "has errors" true (A.Lint.has_errors r);
  Alcotest.(check (list string)) "code" [ "dangling-ref" ] (codes r)

let test_lint_shadowed_epochs () =
  let sc =
    S.make
      [
        S.At (1., S.Link_fail (0, 1));
        S.At (2., S.Link_fail (1, 0));
        (* same link, other orientation *)
        S.At (3., S.Link_recover (0, 1));
        S.At (4., S.Link_recover (0, 1));
        S.At (5., S.Node_restart 2);
      ]
  in
  let r = A.Lint.lint sc ~graph:ring5 ~origin:0 in
  Alcotest.(check bool) "warnings, not errors" false (A.Lint.has_errors r);
  Alcotest.(check (list string)) "codes"
    [ "shadowed-fail"; "spurious-recover"; "spurious-restart" ]
    (codes r)

let test_lint_same_instant_conflict () =
  let sc =
    S.make [ S.At (1., S.Link_fail (0, 1)); S.At (1., S.Link_recover (0, 1)) ]
  in
  let r = A.Lint.lint sc ~graph:ring5 ~origin:0 in
  Alcotest.(check bool) "overlapping-epoch flagged" true
    (List.mem "overlapping-epoch" (codes r))

let test_lint_transient_partition () =
  (* chain 0-1-2: cutting (0,1) strands 1 and 2 until the recovery *)
  let sc =
    S.make [ S.At (1., S.Link_fail (0, 1)); S.At (5., S.Link_recover (0, 1)) ]
  in
  let r = A.Lint.lint sc ~graph:(chain 3) ~origin:0 in
  Alcotest.(check bool) "no errors" false (A.Lint.has_errors r);
  match r.partitions with
  | [ p ] ->
      Alcotest.(check (list int)) "stranded nodes" [ 1; 2 ] p.nodes;
      Alcotest.(check (option (float 1e-9))) "healed at recovery" (Some 5.)
        p.until;
      Alcotest.(check bool) "reported as info" true
        (List.mem "partition" (codes r))
  | ps -> Alcotest.failf "expected one partition, got %d" (List.length ps)

let test_lint_permanent_partition () =
  let sc = S.make [ S.At (1., S.Link_fail (1, 2)) ] in
  let r = A.Lint.lint sc ~graph:(chain 3) ~origin:0 in
  (match r.partitions with
  | [ p ] ->
      Alcotest.(check (list int)) "node 2 stranded" [ 2 ] p.nodes;
      Alcotest.(check bool) "never healed" true (p.until = None)
  | ps -> Alcotest.failf "expected one partition, got %d" (List.length ps));
  Alcotest.(check bool) "warned as permanent" true
    (List.mem "permanent-partition" (codes r))

let test_lint_crashed_nodes_not_counted_stranded () =
  let sc = S.make [ S.At (1., S.Node_crash 2) ] in
  let r = A.Lint.lint sc ~graph:(chain 4) ~origin:0 in
  (* node 3 is cut off by 2's crash; 2 itself is down, not partitioned *)
  match r.partitions with
  | [ p ] -> Alcotest.(check (list int)) "only node 3" [ 3 ] p.nodes
  | ps -> Alcotest.failf "expected one partition, got %d" (List.length ps)

(* --- bounds --- *)

let test_clique_rank_closed_form () =
  Alcotest.(check (float 0.)) "n=2" 1. (A.Bounds.clique_rank_bound 2);
  Alcotest.(check (float 0.)) "n=3" 2. (A.Bounds.clique_rank_bound 3);
  Alcotest.(check (float 0.)) "n=5" 16. (A.Bounds.clique_rank_bound 5);
  Alcotest.(check bool) "n=25 finite but astronomical" true
    (A.Bounds.clique_rank_bound 25 > 1e22
    && A.Bounds.clique_rank_bound 25 < infinity)

let test_derive_rejects_bad_mrai () =
  let graph = Topo.Generators.clique 4 in
  List.iter
    (fun mrai ->
      Alcotest.(check bool) (Printf.sprintf "mrai %g" mrai) true
        (match
           A.Bounds.derive ~graph ~origin:0 ~mrai ~params:Netcore.Params.default
             ()
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ -1.; nan; infinity ]

let test_clique_closed_form_matches_enumeration () =
  List.iter
    (fun n ->
      let graph = Topo.Generators.clique n in
      let r =
        A.Spvp.analyze ~graph ~policy:Bgp.Policy.shortest_path ~origin:0 ()
      in
      match r.enumeration with
      | None -> Alcotest.fail "expected enumeration"
      | Some e ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "clique-%d rank" n)
            (A.Bounds.clique_rank_bound n)
            (float_of_int (List.length e.per_node.(1))))
    [ 3; 4; 5; 6 ]

let test_bounds_check_enforces_certified_only () =
  let graph = Topo.Generators.clique 5 in
  let enumeration =
    match
      (A.Spvp.analyze ~graph ~policy:Bgp.Policy.shortest_path ~origin:0 ())
        .enumeration
    with
    | Some e -> e
    | None -> Alcotest.fail "expected enumeration"
  in
  let certified =
    A.Bounds.derive ~graph ~origin:0 ~mrai:30. ~params:Netcore.Params.default
      ~enumeration ~certified_event:true ()
  in
  Alcotest.(check string) "certified" "certified"
    (A.Bounds.certainty_name certified.time_certainty);
  Alcotest.(check (list string)) "within bound = no violations" []
    (List.map
       (fun (v : A.Bounds.violation) -> v.what)
       (A.Bounds.check certified ~convergence_time:1.));
  Alcotest.(check (list string)) "blown certified bound flagged"
    [ "convergence-time" ]
    (List.map
       (fun (v : A.Bounds.violation) -> v.what)
       (A.Bounds.check certified
          ~convergence_time:(certified.time_bound_s +. 1.)));
  let heuristic =
    A.Bounds.derive ~graph ~origin:0 ~mrai:30. ~params:Netcore.Params.default
      ~enumeration ~certified_event:false ()
  in
  Alcotest.(check (list string)) "heuristic bound not enforced" []
    (List.map
       (fun (v : A.Bounds.violation) -> v.what)
       (A.Bounds.check heuristic
          ~convergence_time:(heuristic.time_bound_s +. 1.)))

(* --- experiment wiring --- *)

let test_experiment_analyze_certifies_cliques () =
  List.iter
    (fun (topology, certified) ->
      let spec = Bgpsim.Experiment.default_spec topology in
      let r = Bgpsim.Experiment.analyze spec in
      Alcotest.(check bool)
        (Bgpsim.Experiment.topology_name topology ^ " admissible")
        true
        (A.Preflight.blocking r = []);
      Alcotest.(check string) "verdict" "safe"
        (A.Spvp.verdict_name r.spvp.verdict);
      Alcotest.(check bool) "finite time bound" true
        (r.bounds.time_bound_s < infinity);
      Alcotest.(check string) "certainty"
        (if certified then "certified" else "heuristic")
        (A.Bounds.certainty_name r.bounds.time_certainty))
    [ (Bgpsim.Experiment.Clique 5, true); (Bgpsim.Experiment.B_clique 5, true) ]

let test_experiment_strict_rejects_dangling_scenario () =
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 5)) with
      event =
        Bgpsim.Experiment.Scenario (S.make [ S.At (1., S.Link_fail (0, 9)) ]);
      preflight = A.Preflight.Strict;
    }
  in
  match Bgpsim.Experiment.run spec with
  | exception A.Preflight.Rejected { stage; issues } ->
      Alcotest.(check string) "stage" "scenario-lint" stage;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "issue names the link" true
        (List.exists (fun m -> contains m "(0,9)") issues)
  | _ -> Alcotest.fail "expected Rejected before any event was scheduled"

(* [spec]'s pre-flight report, its run, and the bounds that run's
   convergence time violated. *)
let run_against_bounds spec =
  let report = Bgpsim.Experiment.analyze spec in
  let run = Bgpsim.Experiment.run spec in
  ( report,
    run,
    A.Bounds.check report.bounds
      ~convergence_time:(Bgp.Routing_sim.convergence_time run.outcome) )

let test_experiment_clique_run_within_certified_bound () =
  let report, run, violations =
    run_against_bounds
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 5))
  in
  Alcotest.(check string) "certified bound" "certified"
    (A.Bounds.certainty_name report.bounds.time_certainty);
  Alcotest.(check bool) "run converged" true run.outcome.converged;
  Alcotest.(check (list string)) "no certified bound violated" []
    (List.map (fun (v : A.Bounds.violation) -> v.what) violations)

let test_sweep_robust_counts_rejections () =
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 4)) with
      event =
        Bgpsim.Experiment.Scenario (S.make [ S.At (1., S.Node_crash 7) ]);
      preflight = A.Preflight.Strict;
    }
  in
  let robust = Bgpsim.Sweep.over_seeds_robust spec ~seeds:[ 1; 2; 3 ] in
  Alcotest.(check int) "all rejected" 3 (List.length robust.rejected);
  Alcotest.(check (list string)) "no hard failures" []
    (List.map
       (fun (f : Bgpsim.Sweep.run_failure) -> f.message)
       robust.failures);
  Alcotest.(check bool) "no metrics" true (robust.metrics = None)

(* --- property: Safe verdicts are honored by the simulator --- *)

(* random connected graph: a random tree plus a few extra edges *)
let graph_gen =
  QCheck.Gen.(
    int_range 3 7 >>= fun n ->
    list_size (return (n - 1)) (int_bound 1000) >>= fun parents ->
    list_size (int_bound 4) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun extra ->
    let seen = Hashtbl.create 16 in
    let edges = ref [] in
    let add u v =
      let key = if u < v then (u, v) else (v, u) in
      if u <> v && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        edges := key :: !edges
      end
    in
    List.iteri (fun i p -> add (i + 1) (p mod (i + 1))) parents;
    List.iter (fun (u, v) -> add u v) extra;
    return (Topo.Graph.create ~n ~edges:!edges))

let prop_safe_configs_converge_within_bound =
  QCheck.Test.make
    ~name:"analyzer-Safe shortest-path configs converge within the bound"
    ~count:40
    (QCheck.make QCheck.Gen.(pair graph_gen (int_range 1 1000)))
    (fun (graph, seed) ->
      let spec =
        {
          (Bgpsim.Experiment.default_spec
             (Bgpsim.Experiment.Custom { graph; origin = 0; name = "rand" }))
          with
          seed;
          mrai = 5.;
        }
      in
      let report, run, violations = run_against_bounds spec in
      (* shortest-path is always safe: the analyzer must certify it *)
      (match report.spvp.verdict with
      | A.Spvp.Safe _ -> ()
      | v ->
          QCheck.Test.fail_reportf "expected Safe, got %s"
            (A.Spvp.verdict_name v));
      run.outcome.converged && violations = [])

let () =
  Alcotest.run "analysis"
    [
      ( "spvp",
        [
          tc "bad gadget unsafe" test_bad_gadget_unsafe;
          tc "good gadget safe" test_good_gadget_safe;
          tc "clique-5 enumeration" test_clique5_safe_with_expected_enumeration;
          tc "chain depth exact" test_chain_depth_exact;
          tc "budget exhaustion is unknown" test_enumeration_budget_unknown;
          tc "disconnected nodes reported" test_disconnected_nodes_reported;
        ] );
      ( "gao-rexford",
        [
          tc "conformant hierarchy" test_gao_rexford_conformant;
          tc "rejects inconsistent and cyclic"
            test_gao_rexford_rejects_inconsistent_and_cyclic;
        ] );
      ( "lint",
        [
          tc "dangling link" test_lint_dangling_link;
          tc "shadowed epochs" test_lint_shadowed_epochs;
          tc "same-instant conflict" test_lint_same_instant_conflict;
          tc "transient partition" test_lint_transient_partition;
          tc "permanent partition" test_lint_permanent_partition;
          tc "crashed nodes not stranded"
            test_lint_crashed_nodes_not_counted_stranded;
        ] );
      ( "bounds",
        [
          tc "clique closed form" test_clique_rank_closed_form;
          tc "closed form matches enumeration"
            test_clique_closed_form_matches_enumeration;
          tc "certified-only enforcement"
            test_bounds_check_enforces_certified_only;
          tc "derive rejects a negative, NaN or infinite MRAI"
            test_derive_rejects_bad_mrai;
        ] );
      ( "experiment",
        [
          tc "cliques certified" test_experiment_analyze_certifies_cliques;
          tc "strict rejects dangling scenario"
            test_experiment_strict_rejects_dangling_scenario;
          tc "clique run within its certified bound"
            test_experiment_clique_run_within_certified_bound;
          tc "robust sweep counts rejections" test_sweep_robust_counts_rejections;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_safe_configs_converge_within_bound ] );
    ]

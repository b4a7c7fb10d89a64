(* The full-mesh behaviour + property wall.

   Behaviour: multi-origin runs ([~origins]) keep per-prefix forwarding
   independent, account victim and background messages, flap
   background origins and validate their inputs; one definition of
   "drained" holds at the event cap, and the loop scanners arm only on
   a drained warm-up.

   Differential: Mesh_sim restricted to one prefix must reproduce
   Routing_sim's T_down exactly — same FIB histories, same loop
   reports, same convergence accounting — on small generated graphs
   and on a sweep of seeded internet graphs with node 0 as the origin.
   test_differential.ml runs the same comparison on the golden
   fixtures and on stub origins.

   Properties: the batched per-peer MRAI releases each pending key
   exactly once per expiry, hands every message to [transmit] under the
   key it was offered with, and behaves like one independent timer per
   key; the streaming per-prefix loop scans of a mesh run equal N
   independent post-hoc scans of its FIB histories. *)

let fib_changes fib = Netcore.Fib_history.changes_from fib ~from:neg_infinity

(* Mesh_sim with a single origin vs Routing_sim's T_down on the same
   graph and seed: every observable result must coincide.  The cases
   that call this keep their names from when the reference was a
   separate multi-origin simulator, itself pinned to Routing_sim. *)
let check_mesh_equals_single ?churn ~graph ~origin ~seed name =
  let mesh =
    Bgp.Mesh_sim.run ?churn ~graph ~origins:[ origin ] ~victim:0 ~seed ()
  in
  let single =
    Bgp.Routing_sim.run ~graph ~origin ~event:Bgp.Routing_sim.Tdown ~seed ()
  in
  Alcotest.(check (float 0.)) (name ^ ": t_fail") single.t_fail mesh.t_fail;
  Alcotest.(check (float 0.))
    (name ^ ": convergence end")
    single.convergence_end mesh.victim_convergence_end;
  Alcotest.(check int)
    (name ^ ": victim messages")
    (single.updates_after_fail + single.withdrawals_after_fail)
    mesh.victim_messages;
  Alcotest.(check int) (name ^ ": no background") 0 mesh.background_messages;
  Alcotest.(check bool) (name ^ ": converged") single.converged mesh.converged;
  Alcotest.(check bool)
    (name ^ ": termination")
    true
    (mesh.termination = single.termination);
  Alcotest.(check int)
    (name ^ ": paths interned")
    single.paths_interned mesh.paths_interned;
  let mesh_fib = snd (List.hd mesh.prefixes) in
  let single_fib = Netcore.Trace.fib single.trace in
  Alcotest.(check bool)
    (name ^ ": FIB histories identical")
    true
    (fib_changes mesh_fib = fib_changes single_fib);
  (* the mesh's streaming loop scan vs a post-hoc scan of Routing_sim's
     own history — the two simulations AND the two scanner
     implementations must agree *)
  let posthoc =
    Loopscan.Scanner.scan ~fib:single_fib ~origin ~from:single.t_fail ()
  in
  match mesh.loop_reports with
  | [ (_, streamed) ] ->
      Alcotest.(check bool)
        (name ^ ": loop reports identical")
        true (streamed = posthoc)
  | reports ->
      Alcotest.failf "%s: expected one loop report, got %d" name
        (List.length reports)

(* --- multi-origin behaviour --- *)

let clique6 = Topo.Generators.clique 6

let run ?churn ~origins ~victim () =
  Bgp.Mesh_sim.run ?churn ~origins ~graph:clique6 ~victim ~seed:1 ()

let test_all_prefixes_converge () =
  let o = run ~origins:[ 0; 1; 2 ] ~victim:0 () in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check int) "three prefixes" 3 (List.length o.prefixes);
  (* before the failure every node routes every prefix *)
  let before = o.t_fail -. 1. in
  List.iter
    (fun (prefix, fib) ->
      let origin = Bgp.Prefix.origin prefix in
      List.iter
        (fun v ->
          if v <> origin then
            Alcotest.(check bool)
              (Printf.sprintf "node %d routes %d" v origin)
              true
              (Netcore.Fib_history.lookup fib ~node:v ~time:before <> None))
        (Topo.Graph.nodes clique6))
    o.prefixes

let test_victim_tdown_only_hits_victim () =
  let o = run ~origins:[ 0; 1; 2 ] ~victim:1 () in
  let late = o.victim_convergence_end +. 100. in
  List.iter
    (fun (prefix, fib) ->
      let origin = Bgp.Prefix.origin prefix in
      let routable =
        List.exists
          (fun v ->
            v <> origin
            && Netcore.Fib_history.lookup fib ~node:v ~time:late <> None)
          (Topo.Graph.nodes clique6)
      in
      if Bgp.Prefix.equal prefix o.victim then
        Alcotest.(check bool) "victim unroutable" false routable
      else Alcotest.(check bool) "bystander intact" true routable)
    o.prefixes

let test_victim_accounting () =
  let o = run ~origins:[ 0; 3 ] ~victim:0 () in
  Alcotest.(check bool) "victim messages flowed" true (o.victim_messages > 0);
  Alcotest.(check bool) "positive convergence" true
    (Bgp.Mesh_sim.convergence_time o > 0.);
  Alcotest.(check int) "quiet background" 0 o.background_messages

let test_churn_generates_background_traffic () =
  let churn = { Bgp.Mesh_sim.period = 20.; cycles = 3; flappers = [ 1 ] } in
  let o = run ~churn ~origins:[ 0; 1 ] ~victim:0 () in
  Alcotest.(check bool) "background messages" true (o.background_messages > 0);
  Alcotest.(check bool) "still converges" true o.converged

let test_matches_single_prefix_sim () =
  (* with a single prefix the multi-origin path must reproduce the
     single-prefix simulation exactly (same seed, same draws, same
     schedule) *)
  check_mesh_equals_single ~graph:(Topo.Generators.clique 5) ~origin:0
    ~seed:3 "clique5 seed 3"

let test_deterministic () =
  let a = run ~origins:[ 0; 2; 4 ] ~victim:0 () in
  let b = run ~origins:[ 0; 2; 4 ] ~victim:0 () in
  Alcotest.(check (float 0.)) "conv" (Bgp.Mesh_sim.convergence_time a)
    (Bgp.Mesh_sim.convergence_time b);
  Alcotest.(check int) "victim msgs" a.victim_messages b.victim_messages

let raises f =
  try
    ignore (f () : Bgp.Mesh_sim.outcome);
    false
  with Invalid_argument _ -> true

let test_churn_validation () =
  let flaps churn () = run ~churn ~origins:[ 0; 1 ] ~victim:0 () in
  let churn period cycles flapper =
    { Bgp.Mesh_sim.period; cycles; flappers = [ flapper ] }
  in
  Alcotest.(check bool) "victim cannot flap" true
    (raises (flaps (churn 10. 1 0)));
  Alcotest.(check bool) "bad period" true (raises (flaps (churn 0. 1 1)));
  Alcotest.(check bool) "negative cycles" true
    (raises (flaps (churn 10. (-1) 1)));
  Alcotest.(check bool) "bad flapper index" true
    (raises (flaps (churn 10. 1 9)))

let test_origin_validation () =
  Alcotest.(check bool) "empty origins" true
    (raises (fun () -> run ~origins:[] ~victim:0 ()));
  Alcotest.(check bool) "duplicate origins" true
    (raises (fun () -> run ~origins:[ 0; 0 ] ~victim:0 ()));
  Alcotest.(check bool) "origin out of range" true
    (raises (fun () -> run ~origins:[ 0; 6 ] ~victim:0 ()));
  Alcotest.(check bool) "victim out of range" true
    (raises (fun () -> run ~origins:[ 0; 1 ] ~victim:5 ()));
  Alcotest.(check bool) "non-positive max_events" true
    (raises (fun () ->
         Bgp.Mesh_sim.run ~max_events:0 ~graph:clique6 ~victim:0 ~seed:1 ()));
  Alcotest.(check bool) "NaN max_vtime" true
    (raises (fun () ->
         Bgp.Mesh_sim.run ~max_vtime:Float.nan ~graph:clique6 ~victim:0 ~seed:1
           ()))

(* --- budgets --- *)

(* A run that drains on exactly its last allowed event is drained, not
   a would-be hang: the queue is looked at before the event count. *)
let test_drained_at_the_cap () =
  let graph = Topo.Generators.clique 5 in
  let mesh ?max_events () =
    Bgp.Mesh_sim.run ?max_events ~graph ~victim:0 ~seed:1 ()
  in
  let e = (mesh ()).events_executed in
  let under = mesh ~max_events:(e - 1) () in
  Alcotest.(check string) "E-1: event budget" "event-budget"
    (Bgp.Routing_sim.termination_name under.termination);
  Alcotest.(check bool) "E-1: not converged" false under.converged;
  List.iter
    (fun cap ->
      let o = mesh ~max_events:cap () in
      Alcotest.(check string)
        (Printf.sprintf "cap E%+d: drained" (cap - e))
        "drained"
        (Bgp.Routing_sim.termination_name o.termination);
      Alcotest.(check bool)
        (Printf.sprintf "cap E%+d: converged" (cap - e))
        true o.converged;
      Alcotest.(check int) "same events" e o.events_executed)
    [ e; e + 1 ]

(* The scanners need the converged warm-up state; a warm-up cut by the
   virtual-time budget did not drain, so nothing is scanned. *)
let test_no_scan_after_undrained_warmup () =
  List.iter
    (fun (name, graph) ->
      let o = Bgp.Mesh_sim.run ~max_vtime:5. ~graph ~victim:0 ~seed:1 () in
      Alcotest.(check string) (name ^ ": vtime budget") "vtime-budget"
        (Bgp.Routing_sim.termination_name o.termination);
      Alcotest.(check bool) (name ^ ": not converged") false o.converged;
      Alcotest.(check int) (name ^ ": no loop reports") 0
        (List.length o.loop_reports))
    [
      ("clique-5", Topo.Generators.clique 5);
      ("internet-29", Topo.Internet.generate ~seed:1 29);
    ]

(* --- differential --- *)

let test_differential_golden_graphs () =
  check_mesh_equals_single ~graph:(Topo.Generators.clique 5) ~origin:0
    ~seed:1 "clique5";
  check_mesh_equals_single ~graph:(Topo.Generators.b_clique 5) ~origin:0
    ~seed:1 "bclique5";
  check_mesh_equals_single ~graph:(Topo.Generators.chain 6) ~origin:0 ~seed:1
    "chain6";
  (* a churn schedule with no flappers injects nothing *)
  check_mesh_equals_single
    ~churn:{ Bgp.Mesh_sim.period = 20.; cycles = 2; flappers = [] }
    ~graph:(Topo.Generators.clique 5) ~origin:0 ~seed:2 "clique5-churn"

let test_differential_internet_sweep () =
  (* 20 seeded internet graphs: 5 sizes x 4 seeds *)
  List.iter
    (fun size ->
      List.iter
        (fun seed ->
          let graph = Topo.Internet.generate ~seed size in
          check_mesh_equals_single ~graph ~origin:0 ~seed
            (Printf.sprintf "internet-%d seed %d" size seed))
        [ 1; 2; 3; 4 ])
    [ 10; 12; 14; 16; 18 ]

let mesh_trace ~graph ~victim ~seed =
  let sink, contents = Obs.Sink.memory () in
  let obs = Obs.Bus.create ~sink () in
  let o = Bgp.Mesh_sim.run ~graph ~victim ~seed ~obs () in
  (o, contents ())

let test_run_twice_deterministic () =
  let graph = Topo.Generators.clique 5 in
  let o1, ev1 = mesh_trace ~graph ~victim:0 ~seed:7 in
  let o2, ev2 = mesh_trace ~graph ~victim:0 ~seed:7 in
  Alcotest.(check string) "identical event streams"
    (Obs.Trace_digest.of_events ev1)
    (Obs.Trace_digest.of_events ev2);
  Alcotest.(check int) "victim messages" o1.victim_messages o2.victim_messages;
  Alcotest.(check (float 0.)) "convergence end" o1.victim_convergence_end
    o2.victim_convergence_end

let test_mesh_trace_prefix_tagged () =
  let graph = Topo.Generators.clique 5 in
  let o, events = mesh_trace ~graph ~victim:2 ~seed:1 in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check int) "one prefix per node" 5 (List.length o.prefixes);
  let n_prefixes = List.length o.prefixes in
  let tagged = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Obs.Event.Update_sent _ | Obs.Event.Update_recv _
      | Obs.Event.Originate _ | Obs.Event.Withdrawal _ | Obs.Event.Fib_change _
      | Obs.Event.Loop_detected _ | Obs.Event.Loop_resolved _ -> (
          match Obs.Event.prefix e with
          | Some p when p >= 0 && p < n_prefixes -> incr tagged
          | Some p -> Alcotest.failf "prefix id %d out of range" p
          | None -> Alcotest.failf "untagged per-prefix event: %s"
                      (Obs.Event.to_json e))
      | _ ->
          Alcotest.(check bool) "non-prefix events untagged" true
            (Obs.Event.prefix e = None))
    events;
  Alcotest.(check bool) "plenty of tagged events" true (!tagged > 100)

(* --- QCheck: batched MRAI vs one naive timer per key --- *)

type action = Offer | Send_now of bool (* keep_pending *) | Reset

type op = { at : float; key : int; msg : int; action : action }

(* Per-key intervals with a zero and a tie: deadlines of keys 2 and 3
   (and of key 1 against either) coincide even when their intervals
   started in a different order. *)
let interval_of key = [| 0.; 5.; 10.; 10. |].(key)

(* Suppressed transmits for msg mod 5 = 0 (to exercise the per-key
   drain loop); everything sent is logged as (key, msg) in transmit
   order.  Messages carry the key they are offered under, which
   [transmit] must be handed back. *)
let run_deadline_queue mode ops =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let since_fire = Hashtbl.create 8 in
  let direct = ref false in
  let last_key = ref 0 in
  let mrai =
    Bgp.Mrai.create ~mode ~engine
      ~on_fire:(fun () -> Hashtbl.reset since_fire)
      ~draw_interval:(fun () -> interval_of !last_key)
      ~transmit:(fun ~key:transmit_key (key, msg) ->
        if transmit_key <> key then
          failwith
            (Printf.sprintf "message offered under key %d transmitted as %d"
               key transmit_key);
        if msg mod 5 = 0 then false
        else begin
          (* "each pending key releases at most one message per expiry";
             send_now bypasses the limiter and is not a release *)
          if not !direct then begin
            if Hashtbl.mem since_fire key then
              failwith "key released twice in one expiry";
            Hashtbl.add since_fire key ()
          end;
          last_key := key;
          sent := (key, msg) :: !sent;
          true
        end)
      ()
  in
  List.iter
    (fun { at; key; msg; action } ->
      ignore
        (Dessim.Engine.schedule engine ~at (fun () ->
             match action with
             | Offer -> Bgp.Mrai.offer ~key mrai (key, msg)
             | Send_now keep_pending ->
                 direct := true;
                 Bgp.Mrai.send_now ~key mrai ~keep_pending (key, msg);
                 direct := false
             | Reset ->
                 Hashtbl.reset since_fire;
                 Bgp.Mrai.reset mrai)))
    ops;
  Dessim.Engine.run engine;
  List.rev !sent

let run_naive mode ops =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let timers = Hashtbl.create 8 in
  let timer_for key =
    match Hashtbl.find_opt timers key with
    | Some t -> t
    | None ->
        let t =
          Bgp.Mrai.create ~mode ~engine
            ~draw_interval:(fun () -> interval_of key)
            ~transmit:(fun ~key:_ (key, msg) ->
              if msg mod 5 = 0 then false
              else begin
                sent := (key, msg) :: !sent;
                true
              end)
            ()
        in
        Hashtbl.add timers key t;
        t
  in
  List.iter
    (fun { at; key; msg; action } ->
      ignore
        (Dessim.Engine.schedule engine ~at (fun () ->
             match action with
             | Offer -> Bgp.Mrai.offer (timer_for key) (key, msg)
             | Send_now keep_pending ->
                 Bgp.Mrai.send_now (timer_for key) ~keep_pending (key, msg)
             | Reset ->
                 (* a session reset resets every per-key limiter *)
                 Hashtbl.iter (fun _ t -> Bgp.Mrai.reset t) timers)))
    ops;
  Dessim.Engine.run engine;
  List.rev !sent

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (map3
         (fun at (key, msg) action ->
           { at = float_of_int at /. 2.; key; msg; action })
         (int_range 0 50)
         (pair (int_range 0 3) (int_range 0 30))
         (frequency
            [
              (12, return Offer);
              (2, return (Send_now false));
              (2, return (Send_now true));
              (1, return Reset);
            ])))

let arb_ops =
  let show o =
    match o.action with
    | Offer -> Printf.sprintf "(%g,k%d,m%d)" o.at o.key o.msg
    | Send_now keep ->
        Printf.sprintf "(%g,k%d,m%d,send_now%s)" o.at o.key o.msg
          (if keep then "+keep" else "")
    | Reset -> Printf.sprintf "(%g,reset)" o.at
  in
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map show ops))
    gen_ops

let prop_batched_mrai_equals_naive =
  QCheck.Test.make ~count:500
    ~name:"batched MRAI = one independent timer per key" arb_ops (fun ops ->
      (* engine schedule order within an instant must agree: keep the
         ops in nondecreasing time order *)
      let ops = List.stable_sort (fun a b -> compare a.at b.at) ops in
      List.for_all
        (fun mode -> run_deadline_queue mode ops = run_naive mode ops)
        [ Bgp.Mrai.Collapse; Bgp.Mrai.Fifo ])

(* --- QCheck: mesh streaming scans = N independent post-hoc scans --- *)

let prop_mesh_scans_equal_posthoc =
  QCheck.Test.make ~count:8 ~name:"mesh streaming scans = post-hoc scans"
    QCheck.(pair (int_range 4 6) (int_range 1 500))
    (fun (n, seed) ->
      let graph = Topo.Generators.clique n in
      let o = Bgp.Mesh_sim.run ~graph ~victim:(seed mod n) ~seed () in
      o.converged
      && List.for_all2
           (fun (p, fib) (p', streamed) ->
             Bgp.Prefix.equal p p'
             && streamed
                = Loopscan.Scanner.scan ~fib
                    ~origin:(Bgp.Prefix.origin p)
                    ~from:o.t_fail ())
           o.prefixes o.loop_reports)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mesh"
    [
      ( "behaviour",
        [
          tc "all prefixes converge" test_all_prefixes_converge;
          tc "T_down only hits the victim" test_victim_tdown_only_hits_victim;
          tc "victim accounting" test_victim_accounting;
          tc "churn generates background traffic"
            test_churn_generates_background_traffic;
          tc "matches the single-prefix sim" test_matches_single_prefix_sim;
          tc "deterministic" test_deterministic;
        ] );
      ( "validation",
        [
          tc "churn validation" test_churn_validation;
          tc "origin validation" test_origin_validation;
        ] );
      ( "budgets",
        [
          tc "drained on its last allowed event" test_drained_at_the_cap;
          tc "no scan after an undrained warm-up"
            test_no_scan_after_undrained_warmup;
        ] );
      ( "differential",
        [
          tc "mesh(1 prefix) = multi on golden graphs"
            test_differential_golden_graphs;
          tc "mesh(1 prefix) = multi on 20 internet graphs"
            test_differential_internet_sweep;
          tc "run twice, identical trace" test_run_twice_deterministic;
          tc "every per-prefix event tagged in range"
            test_mesh_trace_prefix_tagged;
        ] );
      ( "batched-mrai",
        [ QCheck_alcotest.to_alcotest prop_batched_mrai_equals_naive ] );
      ( "loop-scans",
        [ QCheck_alcotest.to_alcotest prop_mesh_scans_equal_posthoc ] );
    ]

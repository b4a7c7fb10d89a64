(* churn-service: [Churn.Driver.run] on an internet-110 graph with a
   single prefix (epoch_len 300, flap_rate 8, compact_every 8, digest
   chain on).  The timed section runs back-to-back horizons of
   [horizon_events] engine events, each with its own seed; a step is
   one epoch, timed between [on_epoch] callbacks. *)

let horizon_events = 2_500_000

let cfg ?(digest = true) ~graph ~origin ~seed ~target_events () =
  let workload = Churn.Workload.make ~epoch_len:300. ~flap_rate:8. () in
  Churn.Driver.make ~seed ~workload ~epochs:max_int ~target_events
    ~compact_every:8 ~digest ~graph ~origin ()

let origin_of graph = List.hd (Topo.Graph.min_degree_nodes graph)

let step_seed ~seed k = (seed * 1000) + k

let canary_key = "churn-service/canary"

let canary_events = 300_000

let horizon_key k = Printf.sprintf "churn-service/horizon-%d" k

let chain (r : Churn.Driver.result) =
  Option.value r.chain_digest ~default:"no-digest"

(* One horizon, with the wall time of every epoch. *)
let horizon ?sink c =
  let epochs = ref [] in
  let last = ref (Helpers.now ()) in
  let on_epoch (e : Churn.Driver.epoch_info) =
    let t = Helpers.now () in
    epochs := (t -. !last, e.ei_events, e.ei_compacted) :: !epochs;
    last := t
  in
  let r = Churn.Driver.run ~on_epoch ?sink c in
  (r, List.rev !epochs)

(* Set-up: the workload graph (timed on its own, it is the topology
   layer's share), and a short horizon at the default seed as warm-up
   and canary.  The graph is the same for every seed, so the seed
   varies only the simulation. *)
let setup ~expected =
  let graph, graph_s =
    Helpers.time (fun () -> Topo.Internet.generate ~seed:1 110)
  in
  let canary =
    Churn.Driver.run
      (cfg ~graph ~origin:(origin_of graph) ~seed:1 ~target_events:canary_events
         ())
  in
  let canary_ok =
    canary.status = Churn.Driver.Completed
    && Measure.recorded expected ~key:canary_key (chain canary)
  in
  (graph, graph_s, canary_ok)

let run ~seed ~seconds ~traced ~expected =
  let (graph, graph_s, canary_ok), setup_s =
    Measure.repeated_setup (fun () -> setup ~expected)
  in
  let origin = origin_of graph in
  let make ?digest k =
    cfg ?digest ~graph ~origin ~seed:(step_seed ~seed k)
      ~target_events:horizon_events ()
  in
  let steps = ref [] and events = ref 0 and failed = ref 0 in
  let first = ref "" and recorded_ok = ref true in
  let sink, trace_events, ring = Measure.counting_sink () in
  let untraced = ref 0. and traced_wall = ref 0. and digest_off = ref 0. in
  let in_epochs = ref 0. in
  let counters = ref None and loops = ref 0 in
  let arena_peak = ref 0 and arena_words = ref 0 and compactions = ref 0 in
  let compact = ref (0., 0) and plain = ref (0., 0) in
  let traced_ok = ref true in
  let step k =
    let (r, epochs), wall = Helpers.time (fun () -> horizon (make k)) in
    let digest = chain r in
    if k = 0 then first := digest;
    let recorded =
      seed <> 1
      || (not (List.mem_assoc (horizon_key k) expected))
      || Measure.recorded expected ~key:(horizon_key k) digest
    in
    recorded_ok := !recorded_ok && recorded;
    events := !events + r.events_executed;
    List.iter (fun (s, _, _) -> steps := s :: !steps) epochs;
    if not (recorded && r.status = Churn.Driver.Completed) then incr failed;
    if traced then begin
      untraced := !untraced +. wall;
      in_epochs :=
        List.fold_left (fun acc (s, _, _) -> acc +. s) !in_epochs epochs;
      let (r', _), tw = Helpers.time (fun () -> horizon ~sink (make k)) in
      traced_wall := !traced_wall +. tw;
      let r'', off =
        Helpers.time (fun () -> Churn.Driver.run (make ~digest:false k))
      in
      digest_off := !digest_off +. off;
      traced_ok :=
        !traced_ok
        && String.equal (chain r') digest
        && r''.events_executed = r.events_executed;
      counters :=
        Some
          (match !counters with
          | None -> r.counters
          | Some c -> Obs.Counters.merge c r.counters);
      loops := !loops + r.loop_totals.loops_started;
      arena_peak := Stdlib.max !arena_peak r.arena_peak;
      arena_words := Stdlib.max !arena_words r.arena_words;
      List.iter
        (fun (s, ev, compacted) ->
          let acc = if compacted then compact else plain in
          let t, e = !acc in
          acc := (t +. s, e + ev);
          if compacted then incr compactions)
        epochs
    end
  in
  let alloc0 = Helpers.allocated () in
  let t0 = Helpers.now () in
  let rec loop k =
    let elapsed = Helpers.now () -. t0 in
    (* at least 1000 epochs, so the p99 has ten samples beyond it *)
    if elapsed < seconds || (List.length !steps < 1000 && elapsed < 120.)
    then begin
      (try step k with Failure _ | Invalid_argument _ -> incr failed);
      loop (k + 1)
    end
    else k
  in
  let n = loop 0 in
  let wall_s = Helpers.now () -. t0 in
  let alloc_words = Helpers.allocated () -. alloc0 in
  let layers =
    if not traced then []
    else
      let per = float_of_int (List.length !steps) in
      let ns_per_event (t, e) = if e = 0 then 0. else t *. 1e9 /. float_of_int e in
      [
        ("topo.resolve_s", graph_s);
        ("bgp.routing_sim_s", !untraced /. per);
        ("dessim.events", float_of_int !events /. per);
        ("loopscan.loops", float_of_int !loops /. per);
        ("obs.trace_events", float_of_int !trace_events /. per);
        ("obs.binary_encode_ns", Measure.binary_encode_ns (ring ()));
        ("obs.digest_s", (!untraced -. !digest_off) /. per);
        ("bgp.arena_peak", float_of_int !arena_peak);
        ("bgp.arena_words", float_of_int !arena_words);
        ("churn.compactions", float_of_int !compactions /. per);
        ("churn.compact_epoch_ns_per_event", ns_per_event !compact);
        ("churn.plain_epoch_ns_per_event", ns_per_event !plain);
        ("core.attributed_share", !in_epochs /. !untraced);
        ("core.unattributed_s", (!untraced -. !in_epochs) /. per);
        ("obs.tracing_overhead_s", (!traced_wall -. !untraced) /. per);
      ]
      @
      match !counters with
      | Some c -> Measure.counter_layers ~per c
      | None -> []
  in
  let checks =
    [
      ("canary matches its recorded chain digest", canary_ok);
      ("default-seed horizons match their recorded chain digests", !recorded_ok);
    ]
    @
    if traced then
      [ ("traced and digest-off horizons reproduce the untraced run", !traced_ok) ]
    else []
  in
  {
    Measure.setup_s;
    steps = List.rev !steps;
    tail_cap = 0.99;
    wall_s;
    events = !events;
    alloc_words;
    attempted = n + 1;
    failed = (!failed + if canary_ok then 0 else 1);
    checks;
    digest = !first;
    layers;
  }

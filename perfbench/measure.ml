(* What one workload run hands back, and the metric catalogue it is
   reported under.  README.md in this directory documents every
   metric. *)

type t = {
  setup_s : float;  (** median over [setup_reps] set-ups *)
  steps : float list;  (** wall seconds of each timed step *)
  tail_cap : float;  (** highest percentile the workload may report *)
  wall_s : float;  (** the timed section *)
  events : int;  (** engine events executed in the timed section *)
  alloc_words : float;  (** words allocated in the timed section *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks *)
  digest : string;  (** outcome digest of the seed's first unit of work *)
  layers : (string * float) list;  (** per-layer values (traced run) *)
}

let setup_reps = 7

(* Runs [f] [setup_reps] times; returns its last result and the median
   wall time. *)
let repeated_setup f =
  let rec go k acc last =
    if k = 0 then
      match last with
      | Some r -> (r, Helpers.median acc)
      | None -> assert false
    else
      let r, s = Helpers.time f in
      go (k - 1) (s :: acc) (Some r)
  in
  go setup_reps [] None

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "events/s");
    ("steps_per_s", "steps/s");
    ("step_tail_ms", "ms");
    ("alloc_words_per_event", "words/event");
    ("peak_heap_mw", "Mwords");
  ]

let per_layer =
  [
    ("traffic.replay_s", "s");
    ("traffic.packets_sent", "count");
    ("traffic.packets_exhausted", "count");
    ("traffic.ns_per_packet", "ns");
    ("topo.resolve_s", "s");
    ("bgp.routing_sim_s", "s");
    ("bgp.proc_complete_s", "s");
    ("bgp.proc_complete_n", "count");
    ("bgp.mrai_fire_s", "s");
    ("bgp.mrai_fire_n", "count");
    ("netcore.link_deliver_s", "s");
    ("netcore.link_deliver_n", "count");
    ("dessim.dispatch_s", "s");
    ("dessim.events", "count");
    ("bgp.updates_sent", "count");
    ("bgp.updates_recv", "count");
    ("bgp.withdrawals_sent", "count");
    ("bgp.decision_runs", "count");
    ("bgp.fib_changes", "count");
    ("bgp.mrai_fires", "count");
    ("netcore.msgs_dropped", "count");
    ("netcore.queue_depth_hwm", "count");
    ("bgp.paths_interned", "count");
    ("bgp.decisions_per_update", "ratio");
    ("bgp.fib_changes_per_decision", "ratio");
    ("loopscan.scan_s", "s");
    ("loopscan.loops", "count");
    ("metrics.make_s", "s");
    ("obs.trace_events", "count");
    ("obs.binary_encode_ns", "ns");
    ("obs.digest_s", "s");
    ("bgp.arena_peak", "count");
    ("bgp.arena_words", "words");
    ("churn.compactions", "count");
    ("churn.compact_epoch_ns_per_event", "ns");
    ("churn.plain_epoch_ns_per_event", "ns");
    ("core.attributed_share", "fraction");
    ("core.unattributed_s", "s");
    ("obs.tracing_overhead_s", "s");
  ]

let peak_heap_mw () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6

let end_to_end_values r =
  let n = List.length r.steps in
  let _, tail, _ = Helpers.summarize ~cap:r.tail_cap r.steps in
  [
    ("setup_s", r.setup_s);
    ("events_per_s", float_of_int r.events /. r.wall_s);
    ("steps_per_s", float_of_int n /. r.wall_s);
    ("step_tail_ms", tail *. 1e3);
    ("alloc_words_per_event", r.alloc_words /. float_of_int r.events);
    ("peak_heap_mw", peak_heap_mw ());
  ]

(* Per-layer values in catalogue order; a layer the workload never
   calls reads 0. *)
let per_layer_values r =
  List.map
    (fun (name, _) ->
      (name, Option.value (List.assoc_opt name r.layers) ~default:0.))
    per_layer

(* Counter-registry layers, [per] steps. *)
let counter_layers ~per (s : Obs.Counters.snapshot) =
  let f x = float_of_int x /. per in
  let hwm =
    List.fold_left
      (fun acc (_, (pn : Obs.Counters.per_node)) ->
        Stdlib.max acc pn.queue_depth_hwm)
      0 s.s_nodes
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("bgp.updates_sent", f s.s_updates_sent);
    ("bgp.updates_recv", f s.s_updates_recv);
    ("bgp.withdrawals_sent", f s.s_withdrawals_sent);
    ("bgp.decision_runs", f s.s_decision_runs);
    ("bgp.fib_changes", f s.s_fib_changes);
    ("bgp.mrai_fires", f s.s_mrai_fires);
    ("netcore.msgs_dropped", f s.s_msgs_dropped);
    ("netcore.queue_depth_hwm", float_of_int hwm);
    ("bgp.paths_interned", float_of_int s.s_paths_interned);
    ( "bgp.decisions_per_update",
      ratio s.s_decision_runs (s.s_updates_recv + s.s_withdrawals_recv) );
    ("bgp.fib_changes_per_decision", ratio s.s_fib_changes s.s_decision_runs);
  ]

(* A sink that counts trace events and keeps the last few thousand for
   the encoder measurement. *)
let counting_sink () =
  let count = ref 0 in
  let ring, contents = Obs.Sink.ring ~capacity:4096 () in
  let sink = Obs.Sink.tee (Obs.Sink.fn (fun _ -> incr count)) ring in
  (sink, count, contents)

(* Nanoseconds per event to encode [sample] with {!Obs.Binary.encode},
   over enough repetitions to take at least 20 ms. *)
let binary_encode_ns sample =
  match sample with
  | [] -> 0.
  | _ ->
      let buf = Buffer.create 65536 in
      let encoded = ref 0 in
      let t0 = Helpers.now () in
      while Helpers.now () -. t0 < 0.02 do
        Buffer.clear buf;
        List.iter (fun e -> Obs.Binary.encode buf e) sample;
        encoded := !encoded + List.length sample
      done;
      (Helpers.now () -. t0) *. 1e9 /. float_of_int !encoded

(* [digest] equals the value recorded for [key]; a missing record
   counts as a mismatch. *)
let recorded expected ~key digest =
  match List.assoc_opt key expected with
  | Some hex -> String.equal hex digest
  | None -> false

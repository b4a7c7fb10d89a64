(* Tests for the network substrate: timing parameters, the FIB history,
   the run trace, links and the per-node serial processor. *)

(* --- Params --- *)

let test_params_default_matches_paper () =
  let p = Netcore.Params.default in
  Alcotest.(check (float 0.)) "2 ms links" 0.002 p.link_delay;
  Alcotest.(check (float 0.)) "proc min" 0.1 p.proc_delay_min;
  Alcotest.(check (float 0.)) "proc max" 0.5 p.proc_delay_max;
  Alcotest.(check int) "ttl 128" 128 p.ttl;
  Alcotest.(check (float 0.)) "10 pkt/s" 10. p.pkt_rate;
  Netcore.Params.validate p

let test_params_validation () =
  let raises p =
    try
      Netcore.Params.validate p;
      false
    with Invalid_argument _ -> true
  in
  let d = Netcore.Params.default in
  Alcotest.(check bool) "link" true (raises { d with link_delay = 0. });
  Alcotest.(check bool) "NaN link" true
    (raises { d with link_delay = Float.nan });
  Alcotest.(check bool) "infinite link" true
    (raises { d with link_delay = infinity });
  Alcotest.(check bool) "NaN rate" true (raises { d with pkt_rate = Float.nan });
  Alcotest.(check bool) "infinite rate" true
    (raises { d with pkt_rate = infinity });
  Alcotest.(check bool) "proc order" true
    (raises { d with proc_delay_max = 0.05 });
  Alcotest.(check bool) "NaN proc delays" true
    (raises { d with proc_delay_min = Float.nan; proc_delay_max = Float.nan });
  Alcotest.(check bool) "NaN proc max" true
    (raises { d with proc_delay_max = Float.nan });
  Alcotest.(check bool) "NaN proc min" true
    (raises { d with proc_delay_min = Float.nan });
  Alcotest.(check bool) "infinite proc max" true
    (raises { d with proc_delay_max = infinity });
  Alcotest.(check bool) "ttl" true (raises { d with ttl = 0 });
  Alcotest.(check bool) "rate" true (raises { d with pkt_rate = 0. })

(* --- Fib_history --- *)

let test_fib_initially_empty () =
  let fib = Netcore.Fib_history.create ~n:3 in
  Alcotest.(check bool) "no route" true
    (Netcore.Fib_history.lookup fib ~node:0 ~time:100. = None);
  Alcotest.(check int) "no changes" 0 (Netcore.Fib_history.change_count fib)

let test_fib_lookup_semantics () =
  let fib = Netcore.Fib_history.create ~n:2 in
  Netcore.Fib_history.record fib ~time:1. ~node:0 ~next_hop:(Some 1);
  Netcore.Fib_history.record fib ~time:5. ~node:0 ~next_hop:None;
  let look t = Netcore.Fib_history.lookup fib ~node:0 ~time:t in
  Alcotest.(check bool) "before first" true (look 0.5 = None);
  Alcotest.(check bool) "at change" true (look 1. = Some 1);
  Alcotest.(check bool) "between" true (look 3. = Some 1);
  Alcotest.(check bool) "after withdrawal" true (look 6. = None)

let test_fib_dedupes_no_ops () =
  let fib = Netcore.Fib_history.create ~n:2 in
  Netcore.Fib_history.record fib ~time:1. ~node:0 ~next_hop:(Some 1);
  Netcore.Fib_history.record fib ~time:2. ~node:0 ~next_hop:(Some 1);
  Alcotest.(check int) "one real change" 1
    (Netcore.Fib_history.change_count fib)

let test_fib_rejects_time_regression () =
  let fib = Netcore.Fib_history.create ~n:2 in
  Netcore.Fib_history.record fib ~time:5. ~node:0 ~next_hop:(Some 1);
  Alcotest.(check bool) "raises" true
    (try
       Netcore.Fib_history.record fib ~time:4. ~node:0 ~next_hop:None;
       false
     with Invalid_argument _ -> true)

let test_fib_rejects_malformed_changes () =
  let fib = Netcore.Fib_history.create ~n:3 in
  let rejects ~time ~node ~next_hop =
    try
      Netcore.Fib_history.record fib ~time ~node ~next_hop;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "next hop = n" true
    (rejects ~time:1. ~node:0 ~next_hop:(Some 3));
  Alcotest.(check bool) "negative next hop" true
    (rejects ~time:1. ~node:0 ~next_hop:(Some (-1)));
  Alcotest.(check bool) "NaN time" true
    (rejects ~time:Float.nan ~node:0 ~next_hop:(Some 1));
  Alcotest.(check int) "nothing recorded" 0
    (Netcore.Fib_history.change_count fib);
  Netcore.Fib_history.record fib ~time:1. ~node:0 ~next_hop:(Some 2);
  Alcotest.(check bool) "next hop n - 1 accepted" true
    (Netcore.Fib_history.lookup fib ~node:0 ~time:1. = Some 2)

let test_fib_snapshot_strictly_before () =
  let fib = Netcore.Fib_history.create ~n:2 in
  Netcore.Fib_history.record fib ~time:1. ~node:0 ~next_hop:(Some 1);
  Netcore.Fib_history.record fib ~time:2. ~node:1 ~next_hop:(Some 0);
  let snap = Netcore.Fib_history.snapshot fib ~before:2. in
  Alcotest.(check bool) "node 0 included" true (snap.(0) = Some 1);
  Alcotest.(check bool) "change at boundary excluded" true (snap.(1) = None)

let test_fib_changes_from () =
  let fib = Netcore.Fib_history.create ~n:2 in
  Netcore.Fib_history.record fib ~time:1. ~node:0 ~next_hop:(Some 1);
  Netcore.Fib_history.record fib ~time:3. ~node:1 ~next_hop:(Some 0);
  Netcore.Fib_history.record fib ~time:4. ~node:0 ~next_hop:None;
  let changes = Netcore.Fib_history.changes_from fib ~from:3. in
  Alcotest.(check int) "two changes" 2 (List.length changes);
  let first = List.hd changes in
  Alcotest.(check int) "chronological" 1 first.Netcore.Fib_history.node;
  Alcotest.(check bool) "last time" true
    (Netcore.Fib_history.last_change_time fib = Some 4.)

let test_fib_equal_time_changes_keep_order () =
  let fib = Netcore.Fib_history.create ~n:3 in
  Netcore.Fib_history.record fib ~time:1. ~node:2 ~next_hop:(Some 0);
  Netcore.Fib_history.record fib ~time:1. ~node:1 ~next_hop:(Some 2);
  let changes = Netcore.Fib_history.changes_from fib ~from:0. in
  Alcotest.(check (list int)) "recording order"
    [ 2; 1 ]
    (List.map (fun c -> c.Netcore.Fib_history.node) changes)

let prop_fib_lookup_matches_reference =
  (* Compare binary-search lookups against a naive scan over a random
     change schedule. *)
  QCheck.Test.make ~name:"fib lookup matches linear reference" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (pair (float_range 0. 100.) (option (int_bound 4))))
    (fun raw ->
      let changes =
        List.sort (fun (a, _) (b, _) -> compare a b) raw
      in
      let fib = Netcore.Fib_history.create ~n:5 in
      List.iter
        (fun (time, nh) ->
          Netcore.Fib_history.record fib ~time ~node:0 ~next_hop:nh)
        changes;
      (* reference: last recorded value at or before t, skipping no-ops
         exactly as record does *)
      let reference t =
        let applied = ref None and current = ref None in
        List.iter
          (fun (time, nh) ->
            if nh <> !current then begin
              current := nh;
              if time <= t then applied := nh
            end)
          changes;
        !applied
      in
      List.for_all
        (fun t ->
          Netcore.Fib_history.lookup fib ~node:0 ~time:t = reference t)
        [ 0.; 10.; 25.; 50.; 75.; 99.; 100.; 200. ])

(* --- Link --- *)

let test_link_delivers_with_delay () =
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:0.002 in
  let arrived = ref (-1.) in
  let sent =
    Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () ->
        arrived := Dessim.Engine.now engine)
  in
  Alcotest.(check bool) "sent" true sent;
  Dessim.Engine.run engine;
  Alcotest.(check (float 1e-12)) "delay" 0.002 !arrived

let test_link_down_refuses_send () =
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:0.002 in
  Netcore.Link.fail link;
  Alcotest.(check bool) "down" false (Netcore.Link.is_up link);
  let sent = Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> ()) in
  Alcotest.(check bool) "refused" false sent

let test_link_drops_in_flight_on_failure () =
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  let arrived = ref false in
  ignore
    (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> arrived := true));
  (* fail the link before the message lands *)
  ignore (Dessim.Engine.schedule engine ~at:0.5 (fun () -> Netcore.Link.fail link));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "message lost" false !arrived

let test_link_restore_uses_new_epoch () =
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  let arrived = ref 0 in
  ignore
    (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> incr arrived));
  ignore
    (Dessim.Engine.schedule engine ~at:0.2 (fun () ->
         Netcore.Link.fail link;
         Netcore.Link.restore link;
         (* a message sent after restore must arrive *)
         ignore
           (Netcore.Link.send link ~engine ~from:1 ~deliver:(fun () ->
                incr arrived))));
  Dessim.Engine.run engine;
  (* the pre-failure message is lost, the post-restore one arrives *)
  Alcotest.(check int) "only fresh epoch" 1 !arrived

let test_link_fail_idempotent () =
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  Netcore.Link.fail link;
  Netcore.Link.fail link;
  Alcotest.(check int) "double fail bumps epoch once" 1
    (Netcore.Link.epoch link);
  Alcotest.(check bool) "still down" false (Netcore.Link.is_up link);
  Netcore.Link.restore link;
  Netcore.Link.restore link;
  Alcotest.(check int) "double restore bumps epoch once" 2
    (Netcore.Link.epoch link);
  Alcotest.(check bool) "up again" true (Netcore.Link.is_up link)

let test_link_stale_epoch_dropped_across_flap () =
  (* A message in flight across a full fail/recover cycle must not be
     delivered: the link is up on arrival but the epoch moved on. *)
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  let stale = ref false and fresh = ref false in
  ignore
    (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> stale := true));
  ignore
    (Dessim.Engine.schedule engine ~at:0.1 (fun () -> Netcore.Link.fail link));
  ignore
    (Dessim.Engine.schedule engine ~at:0.2 (fun () ->
         Netcore.Link.restore link;
         ignore
           (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () ->
                fresh := true))));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "stale message dropped" false !stale;
  Alcotest.(check bool) "fresh message delivered" true !fresh

let test_link_epoch_guard_off_reports () =
  (* With the guard disabled the stale message gets through, and the
     attached checker records the violation. *)
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  let checker = Faults.Invariant.create Faults.Invariant.Record in
  Netcore.Link.attach_checker link checker;
  Netcore.Link.set_epoch_guard link false;
  let stale = ref false in
  ignore
    (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> stale := true));
  ignore
    (Dessim.Engine.schedule engine ~at:0.1 (fun () ->
         Netcore.Link.fail link;
         Netcore.Link.restore link));
  Dessim.Engine.run engine;
  Alcotest.(check bool) "stale message delivered" true !stale;
  Alcotest.(check int) "violation recorded" 1
    (Faults.Invariant.count checker Faults.Invariant.Stale_epoch_delivery)

let test_link_chaos_loss_and_dup () =
  let deliveries ~loss ~dup =
    let engine = Dessim.Engine.create () in
    let link = Netcore.Link.create ~a:0 ~b:1 ~delay:0.1 in
    Netcore.Link.set_chaos link ~loss ~dup
      ~rng:(Dessim.Rng.create ~seed:42) ();
    let n = ref 0 in
    for _ = 1 to 50 do
      ignore (Netcore.Link.send link ~engine ~from:0 ~deliver:(fun () -> incr n))
    done;
    Dessim.Engine.run engine;
    !n
  in
  Alcotest.(check int) "loss=1 drops all" 0 (deliveries ~loss:1. ~dup:0.);
  Alcotest.(check int) "dup=1 doubles all" 100 (deliveries ~loss:0. ~dup:1.);
  let a = deliveries ~loss:0.3 ~dup:0.2 in
  let b = deliveries ~loss:0.3 ~dup:0.2 in
  Alcotest.(check int) "same seed, same outcome" a b;
  Alcotest.(check bool) "mixed chaos in range" true (a > 0 && a < 100)

let test_link_rejects_non_endpoint () =
  let engine = Dessim.Engine.create () in
  let link = Netcore.Link.create ~a:0 ~b:1 ~delay:1. in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netcore.Link.send link ~engine ~from:7 ~deliver:(fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* --- Node_proc --- *)

let test_node_proc_serializes () =
  let engine = Dessim.Engine.create () in
  let completions = ref [] in
  let proc =
    Netcore.Node_proc.create ~engine
      ~process:(fun ~from:_ tag ->
        completions := (tag, Dessim.Engine.now engine) :: !completions)
      ()
  in
  let submit delay tag = Netcore.Node_proc.submit proc ~delay ~from:1 tag in
  (* two messages arriving back-to-back at t=0 *)
  submit 0.3 "first";
  submit 0.2 "second";
  Dessim.Engine.run engine;
  match List.rev !completions with
  | [ ("first", t1); ("second", t2) ] ->
      Alcotest.(check (float 1e-9)) "first at own delay" 0.3 t1;
      Alcotest.(check (float 1e-9)) "second queued behind" 0.5 t2
  | _ -> Alcotest.fail "wrong completion order"

let test_node_proc_idle_gap () =
  let engine = Dessim.Engine.create () in
  let finish = ref 0. in
  let proc =
    Netcore.Node_proc.create ~engine
      ~process:(fun ~from:_ () -> finish := Dessim.Engine.now engine)
      ()
  in
  Netcore.Node_proc.submit proc ~delay:0.1 ~from:1 ();
  Dessim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "first done" 0.1 !finish;
  (* a message arriving after the CPU went idle starts immediately *)
  ignore
    (Dessim.Engine.schedule engine ~at:5. (fun () ->
         Netcore.Node_proc.submit proc ~delay:0.1 ~from:1 ()));
  Dessim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "no stale backlog" 5.1 !finish

let test_node_proc_queue_depth () =
  let engine = Dessim.Engine.create () in
  let proc =
    Netcore.Node_proc.create ~engine ~process:(fun ~from:_ () -> ()) ()
  in
  Netcore.Node_proc.submit proc ~delay:0.5 ~from:1 ();
  Netcore.Node_proc.submit proc ~delay:0.5 ~from:1 ();
  Alcotest.(check int) "two queued" 2 (Netcore.Node_proc.queue_depth proc);
  Dessim.Engine.run engine;
  Alcotest.(check int) "drained" 0 (Netcore.Node_proc.queue_depth proc);
  Alcotest.(check (float 1e-9)) "busy_until" 1.
    (Netcore.Node_proc.busy_until proc)

let test_node_proc_rejects_negative () =
  let engine = Dessim.Engine.create () in
  let proc =
    Netcore.Node_proc.create ~engine ~process:(fun ~from:_ () -> ()) ()
  in
  Alcotest.(check bool) "raises" true
    (try
       Netcore.Node_proc.submit proc ~delay:(-0.1) ~from:1 ();
       false
     with Invalid_argument _ -> true)

(* Lane vs one engine event per message.  A script of plain engine
   events at colliding times submits messages to three processors
   sharing one engine; a processed message may submit follow-ups or
   schedule a plain tick.  The reference schedules each message as its
   own event at [max now busy_until + delay]; run in lockstep, both
   must log the same firings and show the same depths, [busy_until]s
   and event counts after every step. *)
type lane_action = Submit of lane_msg | Tick of float

and lane_msg = {
  node : int;
  from : int;
  delay : float;
  id : int;
  next : lane_action list;
}

let gen_lane_script =
  let open QCheck.Gen in
  let delay = oneofl [ 0.; 0.1; 0.25 ] in
  let msg next =
    map
      (fun ((node, from, delay), (id, next)) -> { node; from; delay; id; next })
      (pair
         (triple (int_bound 2) (int_bound 4) delay)
         (pair (int_bound 999) next))
  in
  let leaf = msg (return []) in
  let follow_ups = list_size (int_bound 2) (map (fun m -> Submit m) leaf) in
  let action =
    frequency
      [
        (4, map (fun m -> Submit m) (msg follow_ups));
        (1, map (fun d -> Tick d) delay);
      ]
  in
  list_size (int_range 1 8)
    (pair (oneofl [ 0.; 0.1; 0.25; 0.35 ]) (list_size (int_bound 4) action))

type lane_run = {
  engine : Dessim.Engine.t;
  log : (float * int * int * int) list ref;  (* time, node, from, id *)
  depth : int -> int;
  busy : int -> float;
}

(* [make engine fired] builds the processors under test and returns
   their submit function and per-node depth and busy_until readers;
   [fired node ~from msg] is the handler they run. *)
let lane_run ~make script =
  let engine = Dessim.Engine.create () in
  let log = ref [] in
  let submit = ref (fun (_ : lane_msg) -> ()) in
  let rec run_actions actions =
    List.iter
      (function
        | Submit m -> !submit m
        | Tick d ->
            ignore
              (Dessim.Engine.schedule_after engine ~delay:d (fun () ->
                   log := (Dessim.Engine.now engine, -1, -1, -1) :: !log)))
      actions
  and fired node ~from m =
    log := (Dessim.Engine.now engine, node, from, m.id) :: !log;
    run_actions m.next
  in
  let sub, depth, busy = make engine fired in
  submit := sub;
  List.iter
    (fun (at, actions) ->
      ignore (Dessim.Engine.schedule engine ~at (fun () -> run_actions actions)))
    script;
  { engine; log; depth; busy }

let make_lane engine fired =
  let procs =
    Array.init 3 (fun node ->
        Netcore.Node_proc.create ~engine ~process:(fired node) ())
  in
  ( (fun m ->
      Netcore.Node_proc.submit procs.(m.node) ~delay:m.delay ~from:m.from m),
    (fun i -> Netcore.Node_proc.queue_depth procs.(i)),
    fun i -> Netcore.Node_proc.busy_until procs.(i) )

type ref_proc = { mutable busy_until : float; mutable queued : int }

let make_reference engine fired =
  let procs =
    Array.init 3 (fun _ -> { busy_until = neg_infinity; queued = 0 })
  in
  let submit m =
    let p = procs.(m.node) in
    let at = Float.max (Dessim.Engine.now engine) p.busy_until +. m.delay in
    p.busy_until <- at;
    p.queued <- p.queued + 1;
    ignore
      (Dessim.Engine.schedule engine ~at (fun () ->
           p.queued <- p.queued - 1;
           fired m.node ~from:m.from m))
  in
  (submit, (fun i -> procs.(i).queued), fun i -> procs.(i).busy_until)

let lane_state r =
  ( !(r.log),
    List.init 3 r.depth,
    List.init 3 r.busy,
    Dessim.Engine.events_executed r.engine )

let prop_lane_matches_per_message_events =
  QCheck.Test.make ~name:"lane matches one event per message" ~count:500
    (QCheck.make gen_lane_script)
    (fun script ->
      let lane = lane_run ~make:make_lane script in
      let reference = lane_run ~make:make_reference script in
      let rec lockstep () =
        let a = Dessim.Engine.step lane.engine in
        let b = Dessim.Engine.step reference.engine in
        a = b
        && lane_state lane = lane_state reference
        && ((not a) || lockstep ())
      in
      lockstep ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netcore"
    [
      ( "params",
        [
          tc "defaults match the paper" test_params_default_matches_paper;
          tc "validation" test_params_validation;
        ] );
      ( "fib-history",
        [
          tc "initially empty" test_fib_initially_empty;
          tc "lookup semantics" test_fib_lookup_semantics;
          tc "no-op changes dropped" test_fib_dedupes_no_ops;
          tc "rejects time regression" test_fib_rejects_time_regression;
          tc "rejects malformed changes" test_fib_rejects_malformed_changes;
          tc "snapshot is strictly-before" test_fib_snapshot_strictly_before;
          tc "changes_from" test_fib_changes_from;
          tc "equal-time order kept" test_fib_equal_time_changes_keep_order;
          QCheck_alcotest.to_alcotest prop_fib_lookup_matches_reference;
        ] );
      ( "link",
        [
          tc "delivers with delay" test_link_delivers_with_delay;
          tc "down link refuses" test_link_down_refuses_send;
          tc "in-flight loss on failure" test_link_drops_in_flight_on_failure;
          tc "restore gets fresh epoch" test_link_restore_uses_new_epoch;
          tc "fail and restore idempotent" test_link_fail_idempotent;
          tc "stale epoch dropped across flap"
            test_link_stale_epoch_dropped_across_flap;
          tc "epoch guard off reports violation" test_link_epoch_guard_off_reports;
          tc "chaos loss and duplication" test_link_chaos_loss_and_dup;
          tc "rejects non-endpoint" test_link_rejects_non_endpoint;
        ] );
      ( "node-proc",
        [
          tc "serializes processing" test_node_proc_serializes;
          tc "idle gap resets" test_node_proc_idle_gap;
          tc "queue depth" test_node_proc_queue_depth;
          tc "rejects negative delay" test_node_proc_rejects_negative;
          QCheck_alcotest.to_alcotest prop_lane_matches_per_message_events;
        ] );
    ]

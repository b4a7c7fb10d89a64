(* Tests for the discrete-event simulation engine: growable vectors,
   RNG streams, the event queue and the engine itself. *)

(* --- Vec --- *)

let test_vec_empty () =
  let v = Dessim.Vec.create () in
  Alcotest.(check int) "length" 0 (Dessim.Vec.length v);
  Alcotest.(check bool) "last" true (Dessim.Vec.last v = None)

let test_vec_push_get () =
  let v = Dessim.Vec.create () in
  for i = 0 to 99 do
    Dessim.Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Dessim.Vec.length v);
  Alcotest.(check int) "get 0" 0 (Dessim.Vec.get v 0);
  Alcotest.(check int) "get 99" 198 (Dessim.Vec.get v 99);
  Alcotest.(check bool) "last" true (Dessim.Vec.last v = Some 198)

let test_vec_bounds () =
  let v = Dessim.Vec.create () in
  Dessim.Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of range")
    (fun () -> ignore (Dessim.Vec.get v 1))

let test_vec_iter_fold () =
  let v = Dessim.Vec.create () in
  List.iter (Dessim.Vec.push v) [ 1; 2; 3 ];
  let total = ref 0 in
  Dessim.Vec.iter (fun x -> total := !total + x) v;
  Alcotest.(check int) "iter sum" 6 !total;
  Alcotest.(check int) "fold sum" 6 (Dessim.Vec.fold_left ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Dessim.Vec.to_list v)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Dessim.Rng.create ~seed:7 and b = Dessim.Rng.create ~seed:7 in
  let xs = List.init 20 (fun _ -> Dessim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Dessim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_seeds_differ () =
  let a = Dessim.Rng.create ~seed:1 and b = Dessim.Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Dessim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Dessim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different" true (xs <> ys)

let test_rng_split_decorrelates () =
  let root = Dessim.Rng.create ~seed:3 in
  let a = Dessim.Rng.split root ~label:"a" in
  let b = Dessim.Rng.split root ~label:"b" in
  let xs = List.init 20 (fun _ -> Dessim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Dessim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_split_deterministic () =
  let mk () =
    let root = Dessim.Rng.create ~seed:11 in
    let s = Dessim.Rng.split root ~label:"x" in
    List.init 10 (fun _ -> Dessim.Rng.int s 1000)
  in
  Alcotest.(check (list int)) "reproducible" (mk ()) (mk ())

let test_rng_uniform_bounds () =
  let rng = Dessim.Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Dessim.Rng.uniform rng ~lo:2. ~hi:3. in
    if x < 2. || x >= 3. then Alcotest.failf "uniform out of bounds: %g" x
  done

let test_rng_uniform_degenerate () =
  let rng = Dessim.Rng.create ~seed:5 in
  Alcotest.(check (float 0.)) "lo = hi" 4. (Dessim.Rng.uniform rng ~lo:4. ~hi:4.)

let test_rng_pick () =
  let rng = Dessim.Rng.create ~seed:5 in
  for _ = 1 to 100 do
    let x = Dessim.Rng.pick rng [ 1; 2; 3 ] in
    if x < 1 || x > 3 then Alcotest.fail "pick outside list"
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Dessim.Rng.pick rng ([] : int list)))

let test_rng_shuffle_permutes () =
  let rng = Dessim.Rng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Dessim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Event_queue --- *)

let test_queue_orders_by_time () =
  let q = Dessim.Event_queue.create () in
  Dessim.Event_queue.push q ~time:3. "c";
  Dessim.Event_queue.push q ~time:1. "a";
  Dessim.Event_queue.push q ~time:2. "b";
  let pop () =
    match Dessim.Event_queue.pop q with
    | Some (_, x) -> x
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Dessim.Event_queue.pop q = None)

let test_queue_fifo_at_equal_times () =
  let q = Dessim.Event_queue.create () in
  List.iter (fun x -> Dessim.Event_queue.push q ~time:1. x) [ 1; 2; 3; 4; 5 ];
  let order =
    List.init 5 (fun _ ->
        match Dessim.Event_queue.pop q with
        | Some (_, x) -> x
        | None -> Alcotest.fail "empty")
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] order

let test_queue_peek () =
  let q = Dessim.Event_queue.create () in
  Alcotest.(check bool) "peek empty" true (Dessim.Event_queue.peek_time q = None);
  Dessim.Event_queue.push q ~time:5. ();
  Alcotest.(check bool) "peek" true (Dessim.Event_queue.peek_time q = Some 5.);
  Alcotest.(check int) "size" 1 (Dessim.Event_queue.size q)

let test_queue_rejects_nan () =
  let q = Dessim.Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Dessim.Event_queue.push q ~time:Float.nan ())

let prop_queue_pops_sorted =
  QCheck.Test.make ~name:"queue pops in nondecreasing time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0. 1000.))
    (fun times ->
      let q = Dessim.Event_queue.create () in
      List.iter (fun t -> Dessim.Event_queue.push q ~time:t ()) times;
      let rec drain acc =
        match Dessim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let popped = drain [] in
      List.length popped = List.length times
      && popped = List.sort compare times)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Dessim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dessim.Engine.schedule e ~at:2. (note "b"));
  ignore (Dessim.Engine.schedule e ~at:1. (note "a"));
  ignore (Dessim.Engine.schedule e ~at:3. (note "c"));
  Dessim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock" 3. (Dessim.Engine.now e)

let test_engine_schedule_during_run () =
  let e = Dessim.Engine.create () in
  let fired = ref [] in
  ignore
    (Dessim.Engine.schedule e ~at:1. (fun () ->
         fired := 1 :: !fired;
         ignore
           (Dessim.Engine.schedule_after e ~delay:0.5 (fun () ->
                fired := 2 :: !fired))));
  Dessim.Engine.run e;
  Alcotest.(check (list int)) "nested" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check (float 0.)) "clock" 1.5 (Dessim.Engine.now e)

let test_engine_rejects_past () =
  let e = Dessim.Engine.create ~now:10. () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dessim.Engine.schedule e ~at:5. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_rejects_negative_delay () =
  let e = Dessim.Engine.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dessim.Engine.schedule_after e ~delay:(-1.) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_cancel () =
  let e = Dessim.Engine.create () in
  let fired = ref false in
  let h = Dessim.Engine.schedule e ~at:1. (fun () -> fired := true) in
  Dessim.Engine.cancel h;
  Alcotest.(check bool) "marked" true (Dessim.Engine.cancelled h);
  Dessim.Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "no live events executed" 0
    (Dessim.Engine.events_executed e)

let test_engine_cancel_after_fire_is_noop () =
  let e = Dessim.Engine.create () in
  let h = Dessim.Engine.schedule e ~at:1. (fun () -> ()) in
  Dessim.Engine.run e;
  Dessim.Engine.cancel h;
  Alcotest.(check bool) "not marked cancelled" false (Dessim.Engine.cancelled h)

let test_engine_until () =
  let e = Dessim.Engine.create () in
  let fired = ref [] in
  ignore (Dessim.Engine.schedule e ~at:1. (fun () -> fired := 1 :: !fired));
  ignore (Dessim.Engine.schedule e ~at:5. (fun () -> fired := 5 :: !fired));
  Dessim.Engine.run ~until:2. e;
  Alcotest.(check (list int)) "only first" [ 1 ] !fired;
  Alcotest.(check (float 0.)) "clock stays" 1. (Dessim.Engine.now e);
  Dessim.Engine.run e;
  Alcotest.(check (list int)) "rest" [ 5; 1 ] !fired

(* A cancelled event at or before [until] heading the queue must not
   let [run] fire the live event behind it. *)
let test_engine_until_cancelled_head () =
  let e = Dessim.Engine.create () in
  let fired = ref [] in
  let h = Dessim.Engine.schedule e ~at:1. (fun () -> fired := 1 :: !fired) in
  ignore (Dessim.Engine.schedule e ~at:5. (fun () -> fired := 5 :: !fired));
  Dessim.Engine.cancel h;
  Dessim.Engine.run ~until:2. e;
  Alcotest.(check (list int)) "nothing fired" [] !fired;
  Alcotest.(check (float 0.)) "clock stays" 0. (Dessim.Engine.now e);
  Dessim.Engine.run e;
  Alcotest.(check (list int)) "later event still fires" [ 5 ] !fired;
  Alcotest.(check (float 0.)) "clock at 5" 5. (Dessim.Engine.now e)

let test_engine_max_events () =
  let e = Dessim.Engine.create () in
  for i = 1 to 10 do
    ignore (Dessim.Engine.schedule e ~at:(float_of_int i) (fun () -> ()))
  done;
  Dessim.Engine.run ~max_events:3 e;
  Alcotest.(check int) "stopped at budget" 3 (Dessim.Engine.events_executed e);
  Alcotest.(check int) "rest pending" 7 (Dessim.Engine.pending e)

let test_engine_step () =
  let e = Dessim.Engine.create () in
  Alcotest.(check bool) "empty step" false (Dessim.Engine.step e);
  ignore (Dessim.Engine.schedule e ~at:1. (fun () -> ()));
  Alcotest.(check bool) "one step" true (Dessim.Engine.step e);
  Alcotest.(check bool) "drained" false (Dessim.Engine.step e)

let test_engine_equal_time_fifo () =
  let e = Dessim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Dessim.Engine.schedule e ~at:1. (fun () -> log := i :: !log))
  done;
  Dessim.Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* Each item takes its number in list order; a deferred one is pushed
   under its reserved number after all the others, in a shuffled
   order, into one queue, and pushed at once into the reference. *)
let prop_reserved_push_order =
  QCheck.Test.make
    ~name:"reserved pushes pop as if pushed at reservation" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 60)
           (pair (oneofl [ 0.; 0.5; 1.; 2. ]) bool))
        small_nat)
    (fun (items, shuffle_seed) ->
      let q = Dessim.Event_queue.create () in
      let reference = Dessim.Event_queue.create () in
      let deferred =
        List.concat
          (List.mapi
             (fun i (time, defer) ->
               Dessim.Event_queue.push reference ~time i;
               if defer then [ (time, Dessim.Event_queue.reserve q, i) ]
               else (
                 Dessim.Event_queue.push q ~time i;
                 []))
             items)
        |> Array.of_list
      in
      Dessim.Rng.shuffle (Dessim.Rng.create ~seed:shuffle_seed) deferred;
      Array.iter
        (fun (time, seq, i) -> Dessim.Event_queue.push_reserved q ~time ~seq i)
        deferred;
      let rec drain q acc =
        match Dessim.Event_queue.pop q with
        | None -> List.rev acc
        | Some x -> drain q (x :: acc)
      in
      drain q [] = drain reference [])

let test_queue_rejects_unreserved () =
  let q = Dessim.Event_queue.create () in
  let seq = Dessim.Event_queue.reserve q in
  Alcotest.check_raises "never reserved"
    (Invalid_argument "Event_queue.push_reserved: sequence number not reserved")
    (fun () -> Dessim.Event_queue.push_reserved q ~time:0. ~seq:(seq + 1) ());
  Dessim.Event_queue.push_reserved q ~time:0. ~seq ();
  Alcotest.(check int) "reserved one accepted" 1 (Dessim.Event_queue.size q)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dessim"
    [
      ( "vec",
        [
          tc "empty" test_vec_empty;
          tc "push and get" test_vec_push_get;
          tc "bounds check" test_vec_bounds;
          tc "iter and fold" test_vec_iter_fold;
        ] );
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "seeds differ" test_rng_seeds_differ;
          tc "split decorrelates" test_rng_split_decorrelates;
          tc "split deterministic" test_rng_split_deterministic;
          tc "uniform in bounds" test_rng_uniform_bounds;
          tc "uniform degenerate" test_rng_uniform_degenerate;
          tc "pick" test_rng_pick;
          tc "shuffle permutes" test_rng_shuffle_permutes;
        ] );
      ( "event-queue",
        [
          tc "orders by time" test_queue_orders_by_time;
          tc "FIFO at equal times" test_queue_fifo_at_equal_times;
          tc "peek and size" test_queue_peek;
          tc "rejects NaN" test_queue_rejects_nan;
          QCheck_alcotest.to_alcotest prop_queue_pops_sorted;
          tc "rejects unreserved seq" test_queue_rejects_unreserved;
          QCheck_alcotest.to_alcotest prop_reserved_push_order;
        ] );
      ( "engine",
        [
          tc "runs in time order" test_engine_runs_in_order;
          tc "schedule during run" test_engine_schedule_during_run;
          tc "rejects past" test_engine_rejects_past;
          tc "rejects negative delay" test_engine_rejects_negative_delay;
          tc "cancel" test_engine_cancel;
          tc "cancel after fire is no-op" test_engine_cancel_after_fire_is_noop;
          tc "run until" test_engine_until;
          tc "run until skips a cancelled head" test_engine_until_cancelled_head;
          tc "max events" test_engine_max_events;
          tc "step" test_engine_step;
          tc "equal-time FIFO" test_engine_equal_time_fifo;
        ] );
    ]

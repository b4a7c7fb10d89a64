(* Tests for the forwarding replay: single-packet walks against
   hand-built FIB histories, and the constant-rate replay driver. *)

let fib_with ~n changes =
  let fib = Netcore.Fib_history.create ~n in
  List.iter
    (fun (time, node, next_hop) ->
      Netcore.Fib_history.record fib ~time ~node ~next_hop)
    changes;
  fib

let walk ~fib = Traffic.Forwarder.walk (Traffic.Forwarder.compile fib)

(* --- Forwarder --- *)

let test_walk_delivers () =
  (* chain 3 -> 2 -> 1 -> 0 *)
  let fib =
    fib_with ~n:4
      [ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0) ]
  in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:3 ~send_time:1. with
  | Traffic.Forwarder.Delivered { time; hops } ->
      Alcotest.(check int) "hops" 3 hops;
      Alcotest.(check (float 1e-9)) "arrival" 1.006 time
  | f -> Alcotest.failf "expected delivery, got %a" Traffic.Forwarder.pp_fate f

let test_walk_at_origin () =
  let fib = fib_with ~n:1 [] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:0 ~send_time:0. with
  | Traffic.Forwarder.Delivered { hops = 0; _ } -> ()
  | f -> Alcotest.failf "expected 0-hop delivery, got %a" Traffic.Forwarder.pp_fate f

let test_walk_unreachable () =
  let fib = fib_with ~n:3 [ (0., 2, Some 1) ] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:2 ~send_time:1. with
  | Traffic.Forwarder.Unreachable { at_node; _ } ->
      Alcotest.(check int) "dropped at routeless node" 1 at_node
  | f -> Alcotest.failf "expected unreachable, got %a" Traffic.Forwarder.pp_fate f

let test_walk_loop_exhausts_ttl () =
  (* 1 <-> 2, destination 0 never reached *)
  let fib = fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:1 ~send_time:5. with
  | Traffic.Forwarder.Ttl_exhausted { time; at_node } ->
      (* the paper's arithmetic: 128 hops x 2 ms = 256 ms lifetime *)
      Alcotest.(check (float 1e-9)) "lifetime" (5. +. 0.256) time;
      Alcotest.(check bool) "inside the loop" true (at_node = 1 || at_node = 2)
  | f -> Alcotest.failf "expected exhaustion, got %a" Traffic.Forwarder.pp_fate f

let test_walk_escapes_resolving_loop () =
  (* the loop 1 <-> 2 resolves at t = 5.1 when node 2 repoints to 0;
     a packet circling since t = 5 escapes and is delivered *)
  let fib =
    fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1); (5.1, 2, Some 0) ]
  in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:1 ~send_time:5. with
  | Traffic.Forwarder.Delivered { time; hops } ->
      Alcotest.(check bool) "took many hops" true (hops > 2);
      Alcotest.(check bool) "after resolution" true (time > 5.1)
  | f -> Alcotest.failf "expected escape, got %a" Traffic.Forwarder.pp_fate f

let test_walk_ttl_boundary () =
  (* ttl exactly equals path length: delivered with nothing to spare *)
  let fib = fib_with ~n:3 [ (0., 2, Some 1); (0., 1, Some 0) ] in
  (match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:2 ~src:2 ~send_time:0. with
  | Traffic.Forwarder.Delivered { hops = 2; _ } -> ()
  | f -> Alcotest.failf "expected tight delivery, got %a" Traffic.Forwarder.pp_fate f);
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:1 ~src:2 ~send_time:0. with
  | Traffic.Forwarder.Ttl_exhausted { at_node = 1; _ } -> ()
  | f -> Alcotest.failf "expected exhaustion at 1, got %a" Traffic.Forwarder.pp_fate f

let test_walk_validation () =
  let fib = fib_with ~n:2 [] in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "ttl 0" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:0 ~src:1 ~send_time:0.));
  Alcotest.(check bool) "bad delay" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:0. ~ttl:4 ~src:1 ~send_time:0.));
  Alcotest.(check bool) "NaN delay" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:Float.nan ~ttl:4 ~src:1 ~send_time:0.));
  Alcotest.(check bool) "infinite delay" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:infinity ~ttl:4 ~src:1 ~send_time:0.));
  Alcotest.(check bool) "source out of range" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:4 ~src:2 ~send_time:0.))

(* --- The walk's clock --- *)

(* [k] sequential additions, the definition [advance] must match *)
let additions t d k =
  let x = ref t in
  for _ = 1 to k do
    x := !x +. d
  done;
  !x

let rec nudge f x j = if j <= 0 then x else nudge f (f x) (j - 1)

(* Clocks near a power of two (so the additions cross a binade), at and
   around the ends of the normal range, plain times, subnormals,
   negatives and the special values; steps near the clock's ulp, among
   them the odd multiples of half an ulp (ties), steps of at least the
   clock's binade start ([d / u >= 2^52]) and plain link delays. *)
let gen_advance =
  QCheck.Gen.(
    let near_power =
      map3
        (fun e j up ->
          nudge (if up then Float.succ else Float.pred) (Float.ldexp 1. e) j)
        (frequency [ (3, int_range (-12) 13); (1, int_range (-1074) 1023) ])
        (int_bound 300) bool
    and range_end =
      map3
        (fun j up smallest ->
          if smallest then
            nudge (if up then Float.succ else Float.pred) min_float j
          else nudge Float.pred max_float j)
        (frequency [ (1, return 0); (3, int_bound 300) ])
        bool bool
    and subnormal =
      map
        (fun m -> Int64.float_of_bits (Int64.of_int m))
        (int_bound ((1 lsl 52) - 1))
    and special =
      oneofl
        [ 0.; -0.; infinity; neg_infinity; Float.nan; max_float; min_float;
          Float.pred min_float; Float.min_float *. 0.5 ]
    in
    let magnitude =
      frequency
        [
          (4, near_power); (1, range_end); (2, float_range 0. 5000.);
          (1, subnormal); (1, special);
        ]
    and sometimes_negative g =
      map2
        (fun x neg -> if neg then -.x else x)
        g
        (frequency [ (5, return false); (1, return true) ])
    in
    sometimes_negative magnitude >>= fun t ->
    let e = snd (Float.frexp t) in
    let near_ulp =
      map2
        (fun odd p -> Float.ldexp (float_of_int ((2 * odd) + 1)) p)
        (int_bound 7)
        (int_range (e - 56) (e - 45))
    and delay = oneofl [ 0.002; 0.0007; 0.001; 0.003; 0.01; 0.05; 0.1 ]
    and comparable = map (fun f -> f *. Float.abs t) (float_range 0. 1.)
    and wide =
      (* around [2^i lo] for the binade start [lo = 2^(e - 1)]; one
         below [lo] is a tie just under [2^52] ulps *)
      map3
        (fun i j up ->
          nudge
            (if up then Float.succ else Float.pred)
            (Float.ldexp 1. (e - 1 + i))
            j)
        (int_bound 3) (int_bound 4) bool
    in
    let step =
      frequency
        [
          (3, near_ulp); (3, delay); (1, comparable); (1, wide);
          (1, subnormal); (1, special);
        ]
    in
    triple (return t) (sometimes_negative step) (int_range (-1) 300))

let prop_advance_is_additions =
  QCheck.Test.make ~name:"advance = sequential additions" ~count:20_000
    (QCheck.make
       ~print:(fun (t, d, k) -> Printf.sprintf "t=%h d=%h k=%d" t d k)
       gen_advance)
    (fun (t, d, k) ->
      Int64.equal
        (Int64.bits_of_float (Traffic.Forwarder.advance t d k))
        (Int64.bits_of_float (additions t d k)))

(* --- Replay --- *)

let stable_chain_fib () =
  fib_with ~n:4 [ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0) ]

let test_replay_counts_and_rate () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(10., 20.) ~seed:1 ()
  in
  (* 3 sources x 10 pkt/s x 10 s *)
  Alcotest.(check int) "sent" 300 r.sent;
  Alcotest.(check int) "all delivered" 300 r.delivered;
  Alcotest.(check int) "none exhausted" 0 r.exhausted;
  Alcotest.(check (float 1e-9)) "no looping duration" 0.
    (Traffic.Replay.overall_looping_duration r);
  Alcotest.(check (float 1e-9)) "zero ratio" 0. (Traffic.Replay.looping_ratio r)

let test_replay_loop_window () =
  (* 1 <-> 2 looping during [10, 12]; resolved at 12 when 1 repoints *)
  let fib =
    fib_with ~n:3
      [ (0., 2, Some 1); (0., 1, Some 0); (10., 1, Some 2); (12., 1, Some 0) ]
  in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(10., 14.) ~seed:1 ()
  in
  Alcotest.(check bool) "loop caught" true (r.exhausted > 0);
  Alcotest.(check bool) "delivered after resolution" true (r.delivered > 0);
  (match (r.first_exhaustion, r.last_exhaustion) with
  | Some first, Some last ->
      Alcotest.(check bool) "within looping episode" true
        (first >= 10. && last <= 12.3)
  | _ -> Alcotest.fail "expected exhaustions");
  Alcotest.(check bool) "duration bounded by episode" true
    (Traffic.Replay.overall_looping_duration r <= 2.3)

let test_replay_ratio_cutoff () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:1 ~ratio_cutoff:5. ()
  in
  Alcotest.(check int) "full window sent" 300 r.sent;
  Alcotest.(check int) "denominator cut" 150 r.sent_for_ratio

let test_replay_sources_subset () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:1 ~sources:[ 3 ] ()
  in
  Alcotest.(check int) "one stream" 100 r.sent

let test_replay_deterministic () =
  let fib = stable_chain_fib () in
  let go () =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:9 ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "sent" a.sent b.sent;
  Alcotest.(check int) "delivered" a.delivered b.delivered

let test_replay_empty_window () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(5., 5.) ~seed:1 ()
  in
  Alcotest.(check int) "nothing sent" 0 r.sent;
  Alcotest.(check (float 0.)) "ratio zero" 0. (Traffic.Replay.looping_ratio r)

let test_replay_validation () =
  let fib = stable_chain_fib () in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad rate" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:0. ~window:(0., 1.) ~seed:1 ()));
  Alcotest.(check bool) "inverted window" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:1. ~window:(2., 1.) ~seed:1 ()));
  Alcotest.(check bool) "origin as source" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:1. ~window:(0., 1.) ~seed:1 ~sources:[ 0 ] ()));
  (* each of these used to hang, send nothing or fail inside Rng; the
     message must be the replay's own *)
  let rejects name ?(link_delay = 0.002) ?(window = (100., 101.)) rate =
    match
      Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay ~ttl:128 ~rate ~window
        ~seed:1 ()
    with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" name msg)
          true
          (String.starts_with ~prefix:"Forwarder.streams: " msg)
  in
  rejects "NaN rate" Float.nan;
  rejects "infinite rate" infinity;
  rejects "negative rate" (-10.);
  (* 1 / 1e20 is below half an ulp of 101 *)
  rejects "rate too high for the window" 1e20;
  rejects "rate too high at a negative end" ~window:(-1e6, 0.) 1e12;
  rejects "NaN window" ~window:(Float.nan, 1.) 10.;
  rejects "endless window" ~window:(0., infinity) 10.;
  rejects "NaN delay" ~link_delay:Float.nan 10.;
  rejects "infinite delay" ~link_delay:infinity 10.;
  (* the same rate advances a clock near zero *)
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:1e5
      ~window:(0., 1e-3) ~seed:1 ()
  in
  Alcotest.(check int) "high rate on a short window" 300 r.sent

let test_replay_exhaustion_times_sorted () =
  let fib =
    fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ]
  in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:16 ~rate:50.
      ~window:(0., 2.) ~seed:1 ()
  in
  Alcotest.(check bool) "everything exhausted" true (r.exhausted = r.sent);
  let sorted = Array.copy r.exhaustion_times in
  Array.sort compare sorted;
  Alcotest.(check (array (float 0.))) "sorted" sorted r.exhaustion_times

let test_fate_time_accessor () =
  let t f = Traffic.Forwarder.fate_time f in
  Alcotest.(check (float 0.)) "delivered" 1.
    (t (Traffic.Forwarder.Delivered { time = 1.; hops = 3 }));
  Alcotest.(check (float 0.)) "exhausted" 2.
    (t (Traffic.Forwarder.Ttl_exhausted { time = 2.; at_node = 1 }));
  Alcotest.(check (float 0.)) "unreachable" 3.
    (t (Traffic.Forwarder.Unreachable { time = 3.; at_node = 2 }))

let test_replay_sparse_rate () =
  (* the interval exceeds the window: each source sends at most one
     packet (its phase draw decides) and never more *)
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:0.1
      ~window:(0., 5.) ~seed:1 ()
  in
  Alcotest.(check bool) "at most one per source" true (r.sent <= 3);
  Alcotest.(check int) "all fates accounted" r.sent
    (r.delivered + r.unreachable + r.exhausted)

(* --- per source: the tally of [Forwarder.streams] --- *)

let streams ~fib =
  Traffic.Forwarder.streams (Traffic.Forwarder.compile fib)

(* The tally's counts as (source, sent, delivered, unreachable,
   exhausted), in source order. *)
let per_source (t : Traffic.Forwarder.tally) =
  List.init (Array.length t.sources) (fun i ->
      (t.sources.(i), t.sent.(i), t.delivered.(i), t.unreachable.(i),
       t.exhausted.(i)))

let counts_of counts v = List.find (fun (src, _, _, _, _) -> src = v) counts

let looping_ratio (_, sent, _, _, exhausted) =
  if sent = 0 then 0. else float_of_int exhausted /. float_of_int sent

let test_per_source_totals_match_replay () =
  let fib =
    fib_with ~n:3
      [ (0., 2, Some 1); (0., 1, Some 0); (10., 1, Some 2); (12., 1, Some 0) ]
  in
  let window = (10., 14.) and seed = 1 in
  let replay =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window ~seed ()
  in
  let t =
    streams ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128 ~rate:10. ~window
      ~seed ()
  in
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "sent" replay.sent (sum t.sent);
  Alcotest.(check int) "delivered" replay.delivered (sum t.delivered);
  Alcotest.(check int) "exhausted" replay.exhausted (sum t.exhausted)

let test_per_source_identifies_affected () =
  (* loop between 1 and 2; node 3 routes straight to the origin and is
     never affected *)
  let fib =
    fib_with ~n:4 [ (0., 1, Some 2); (0., 2, Some 1); (0., 3, Some 0) ]
  in
  let per_source =
    per_source
      (streams ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:16 ~rate:10.
         ~window:(0., 2.) ~seed:1 ())
  in
  Alcotest.(check (list int)) "only loop members affected" [ 1; 2 ]
    (List.filter_map
       (fun (src, _, _, _, exhausted) ->
         if exhausted > 0 then Some src else None)
       per_source);
  Alcotest.(check (float 1e-9)) "node 3 clean" 0.
    (looping_ratio (counts_of per_source 3));
  Alcotest.(check (float 1e-9)) "node 1 fully looped" 1.
    (looping_ratio (counts_of per_source 1))

let test_per_source_validation () =
  let fib = stable_chain_fib () in
  let raises sources =
    try
      ignore
        (streams ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
           ~window:(0., 1.) ~seed:1 ~sources ()
          : Traffic.Forwarder.tally);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "origin as source" true (raises [ 1; 0 ]);
  Alcotest.(check bool) "source out of range" true (raises [ 4 ]);
  Alcotest.(check bool) "negative source" true (raises [ -1 ])

let test_per_source_footnote4_b_clique () =
  (* The paper's footnote 4: in a B-Clique T_long (failing link (n,0)),
     chain nodes 2..n/2 are not affected and their packets never
     encounter a loop. *)
  let n = 6 in
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.B_clique n)) with
      event = Bgpsim.Experiment.Tlong;
      mrai = 15.;
    }
  in
  let run = Bgpsim.Experiment.run spec in
  let fib = Netcore.Trace.fib run.outcome.trace in
  let per_source =
    per_source
      (streams ~fib ~origin:0 ~n:(2 * n) ~link_delay:0.002 ~ttl:128 ~rate:10.
         ~window:(run.outcome.t_fail, run.outcome.convergence_end)
         ~seed:7 ())
  in
  List.iter
    (fun v ->
      let _, _, _, _, exhausted = counts_of per_source v in
      Alcotest.(check int) (Printf.sprintf "chain node %d unaffected" v) 0
        exhausted)
    [ 1; 2; 3 ]

(* --- Differential wall: the compiled plane against the binary-search
   walk it replaced --- *)

(* The reference: one [Fib_history.lookup] per hop. *)
let ref_walk fib ~origin ~link_delay ~ttl ~src ~send_time =
  if ttl <= 0 || link_delay <= 0. then invalid_arg "ref_walk";
  let rec step node time ttl_left hops =
    if node = origin then Traffic.Forwarder.Delivered { time; hops }
    else if ttl_left = 0 then
      Traffic.Forwarder.Ttl_exhausted { time; at_node = node }
    else
      match Netcore.Fib_history.lookup fib ~node ~time with
      | None -> Traffic.Forwarder.Unreachable { time; at_node = node }
      | Some next -> step next (time +. link_delay) (ttl_left - 1) (hops + 1)
  in
  step src send_time ttl 0

(* The reference packet loop: per source, its (send time, fate) list. *)
let ref_streams ~fib ~origin ~n ~link_delay ~ttl ~rate ~window:(t0, t1) ~seed
    ?sources () =
  if rate <= 0. || t1 < t0 then invalid_arg "ref_streams";
  let sources =
    match sources with
    | Some l ->
        List.iter
          (fun s -> if s = origin || s < 0 || s >= n then invalid_arg "source")
          l;
        l
    | None -> List.filter (fun v -> v <> origin) (List.init n Fun.id)
  in
  let rng = Dessim.Rng.create ~seed in
  let interval = 1. /. rate in
  List.map
    (fun src ->
      let phase = Dessim.Rng.float rng interval in
      let fates = ref [] and time = ref (t0 +. phase) in
      while !time < t1 do
        let fate =
          ref_walk fib ~origin ~link_delay ~ttl ~src ~send_time:!time
        in
        fates := (!time, fate) :: !fates;
        time := !time +. interval
      done;
      (src, List.rev !fates))
    sources

let is_delivered = function Traffic.Forwarder.Delivered _ -> true | _ -> false

let is_unreachable = function
  | Traffic.Forwarder.Unreachable _ -> true
  | _ -> false

let drop_time = function
  | Traffic.Forwarder.Ttl_exhausted { time; _ } -> Some time
  | _ -> None

let ref_result streams ~ratio_cutoff : Traffic.Replay.result =
  let all = List.concat_map snd streams in
  let count p = List.length (List.filter (fun (_, f) -> p f) all) in
  let exhaustion_times =
    Array.of_list (List.filter_map (fun (_, f) -> drop_time f) all)
  in
  Array.sort compare exhaustion_times;
  let k = Array.length exhaustion_times in
  {
    sent = List.length all;
    sent_for_ratio =
      List.length (List.filter (fun (t, _) -> t < ratio_cutoff) all);
    delivered = count is_delivered;
    unreachable = count is_unreachable;
    exhausted = k;
    first_exhaustion = (if k = 0 then None else Some exhaustion_times.(0));
    last_exhaustion = (if k = 0 then None else Some exhaustion_times.(k - 1));
    exhaustion_times;
  }

(* The reference's counts in the order of [per_source]'s. *)
let ref_per_source streams =
  List.map
    (fun (src, fates) ->
      let count p = List.length (List.filter (fun (_, f) -> p f) fates) in
      ( src,
        List.length fates,
        count is_delivered,
        count is_unreachable,
        count (fun f -> drop_time f <> None) ))
    streams

(* Floats compared bit for bit. *)
let bits = Int64.bits_of_float

let result_bits (r : Traffic.Replay.result) =
  ( (r.sent, r.sent_for_ratio, r.delivered, r.unreachable, r.exhausted),
    (Option.map bits r.first_exhaustion, Option.map bits r.last_exhaustion),
    Array.map bits r.exhaustion_times )

let fate_bits = function
  | Traffic.Forwarder.Delivered { time; hops } -> (0, bits time, hops)
  | Traffic.Forwarder.Ttl_exhausted { time; at_node } -> (1, bits time, at_node)
  | Traffic.Forwarder.Unreachable { time; at_node } -> (2, bits time, at_node)

(* [Ok] the value, or [Error] when the call rejected its arguments. *)
let outcome f = try Ok (f ()) with Invalid_argument _ -> Error ()

type case = {
  n : int;
  changes : (float * int * int option) list;
  origin : int;
  ttl : int;
  link_delay : float;
  rate : float;
  window : float * float;
  ratio_cutoff : float;
  seed : int;
  sources : int list option;
}

let print_case c =
  Printf.sprintf
    "n=%d origin=%d ttl=%d delay=%g rate=%g window=(%g, %g) cutoff=%g \
     seed=%d sources=%s changes=[%s]"
    c.n c.origin c.ttl c.link_delay c.rate (fst c.window) (snd c.window)
    c.ratio_cutoff c.seed
    (match c.sources with
    | None -> "all"
    | Some l -> String.concat "," (List.map string_of_int l))
    (String.concat "; "
       (List.map
          (fun (t, v, h) ->
            Printf.sprintf "%g:%d->%s" t v
              (match h with None -> "-" | Some h -> string_of_int h))
          c.changes))

(* Change instants and window ends on one coarse grid, so instants carry
   several changes and windows start or end exactly on one; next hops
   are uniform over the nodes, so 2-cycles, longer loops and self-loops
   are common.  TTLs up to 140 and short link delays let packets circle
   a loop for many laps, so walks jump several laps, stop a jump at a
   change, and cross binades of the clock. *)
let gen_case =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    let node = int_bound (n - 1)
    and instant = map (fun k -> float_of_int k *. 0.1) (int_bound 20) in
    list_size (int_range 0 30) (triple instant node (opt ~ratio:0.8 node))
    >>= fun raw ->
    node >>= fun origin ->
    int_range 1 140 >>= fun ttl ->
    oneofl [ 0.0007; 0.001; 0.002; 0.003; 0.01; 0.025; 0.05 ]
    >>= fun link_delay ->
    oneofl [ 5.; 10.; 20.; 40. ] >>= fun rate ->
    pair instant instant >>= fun (a, b) ->
    let t0 = Float.min a b and t1 = Float.max a b in
    float_range t0 t1 >>= fun ratio_cutoff ->
    int_bound 10_000 >>= fun seed ->
    frequency
      [
        (3, return None);
        (1, map Option.some (list_size (int_range 0 4) (int_range (-1) n)));
      ]
    >>= fun sources ->
    let changes =
      List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) raw
    in
    return
      {
        n;
        changes;
        origin;
        ttl;
        link_delay;
        rate;
        window = (t0, t1);
        ratio_cutoff;
        seed;
        sources;
      })

let prop_plane_matches_reference =
  QCheck.Test.make ~name:"compiled replay = binary-search reference"
    ~count:500 ~long_factor:60
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let fib = fib_with ~n:c.n c.changes in
      let {
        origin; n; link_delay; ttl; rate; window; ratio_cutoff; seed; sources;
        changes = _;
      } =
        c
      in
      let reference =
        outcome (fun () ->
            ref_streams ~fib ~origin ~n ~link_delay ~ttl ~rate ~window ~seed
              ?sources ())
      in
      let same_result =
        outcome (fun () ->
            result_bits
              (Traffic.Replay.run ~fib ~origin ~n ~link_delay ~ttl ~rate ~window
                 ~seed ~ratio_cutoff ?sources ()))
        = Result.map
            (fun st -> result_bits (ref_result st ~ratio_cutoff))
            reference
      in
      let same_per_source =
        outcome (fun () ->
            per_source
              (streams ~fib ~origin ~n ~link_delay ~ttl ~rate ~window ~seed
                 ?sources ()))
        = Result.map ref_per_source reference
      in
      (* single packets from every node, sent on and around every
         instant, through one plane whose cursors carry over *)
      let plane = Traffic.Forwarder.compile fib in
      let same_fates =
        List.for_all
          (fun (t, _, _) ->
            List.for_all
              (fun send_time ->
                List.for_all
                  (fun src ->
                    let go walk =
                      outcome (fun () ->
                          fate_bits
                            (walk ~origin ~link_delay ~ttl ~src ~send_time))
                    in
                    go (Traffic.Forwarder.walk plane) = go (ref_walk fib))
                  (List.init n Fun.id))
              [ Float.pred t; t; Float.succ t; t -. link_delay ])
          ((fst window, 0, None) :: c.changes)
      in
      same_result && same_per_source && same_fates)

(* A 1 <-> 2 loop repaired when node 2 repoints to the origin at
   [repair], with one source (node 1) sending 16-hop packets from
   [t0 = 1] every 0.1 s.  Packet 0 walks inside the loop's epoch and is
   remembered; packet 1 starts in the same epoch, and its last lookup,
   at node 2, is at [last1]. *)
let loop_repaired_at repair =
  fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1); (repair, 2, Some 0) ]

let reuse_boundary_setup () =
  let seed = 3 and rate = 10. and link_delay = 0.002 and ttl = 16 in
  let phase = Dessim.Rng.float (Dessim.Rng.create ~seed) (1. /. rate) in
  let send1 = 1. +. phase +. (1. /. rate) in
  let last1 = ref send1 in
  for _ = 2 to ttl do
    last1 := !last1 +. link_delay
  done;
  (* the ratio cutoff falls exactly on packet 1's send time *)
  let run fib =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay ~ttl ~rate
      ~window:(1., 1.3) ~seed ~ratio_cutoff:send1 ~sources:[ 1 ] ()
  in
  let reference fib =
    ref_result ~ratio_cutoff:send1
      (ref_streams ~fib ~origin:0 ~n:3 ~link_delay ~ttl ~rate ~window:(1., 1.3)
         ~seed ~sources:[ 1 ] ())
  in
  (!last1, run, reference)

let test_reuse_repair_at_last_lookup () =
  let last1, run, reference = reuse_boundary_setup () in
  let fib = loop_repaired_at last1 in
  let r = run fib in
  (* packet 1's last lookup sees the repair: delivered on its 16th hop *)
  Alcotest.(check int) "three packets" 3 r.sent;
  Alcotest.(check int) "only packet 0 before the cutoff" 1 r.sent_for_ratio;
  Alcotest.(check int) "only packet 0 exhausted" 1 r.exhausted;
  Alcotest.(check bool) "equals the reference" true
    (result_bits r = result_bits (reference fib))

let test_reuse_repair_after_last_lookup () =
  let last1, run, reference = reuse_boundary_setup () in
  let fib = loop_repaired_at (Float.succ last1) in
  let r = run fib in
  (* the repair comes one ulp too late: packet 1 takes packet 0's fate *)
  Alcotest.(check int) "packets 0 and 1 exhausted" 2 r.exhausted;
  Alcotest.(check bool) "equals the reference" true
    (result_bits r = result_bits (reference fib))

(* One source's stream on [fib] (origin 0, 2 ms links, 10 pkt/s from
   [t0 = 1], seed 3), replayed and by the reference, as bit patterns;
   and [send k], packet [k]'s send time by the additions the replay
   makes. *)
let stream_setup ~n ~ttl ~src ~window =
  let seed = 3 and rate = 10. and link_delay = 0.002 in
  let interval = 1. /. rate in
  let phase = Dessim.Rng.float (Dessim.Rng.create ~seed) interval in
  let send k = additions (fst window +. phase) interval k in
  let sources = [ src ] in
  let both fib =
    ( result_bits
        (Traffic.Replay.run ~fib ~origin:0 ~n ~link_delay ~ttl ~rate ~window
           ~seed ~sources ()),
      result_bits
        (ref_result ~ratio_cutoff:(snd window)
           (ref_streams ~fib ~origin:0 ~n ~link_delay ~ttl ~rate ~window ~seed
              ~sources ())) )
  in
  (send, both)

(* The chain 3 -> 2 -> 1 -> 0, in which node 2 turns back to 3 at
   [turn]: packets from node 3 look node 2 up on their second hop, not
   their last, and loop from [turn] on. *)
let mid_walk_turn_setup () =
  let send, both = stream_setup ~n:4 ~ttl:16 ~src:3 ~window:(1., 1.3) in
  (* packet 1's lookup at node 2 *)
  let at2 = additions (send 1) 0.002 1 in
  let fib turn =
    fib_with ~n:4
      [ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0); (turn, 2, Some 3) ]
  in
  (at2, fib, both)

let test_reuse_mid_walk_change_at_lookup () =
  let at2, fib, both = mid_walk_turn_setup () in
  let r, reference = both (fib at2) in
  (* packet 0 is delivered; packets 1 and 2 see the turn *)
  let (sent, _, delivered, _, exhausted), _, _ = r in
  Alcotest.(check (triple int int int)) "sent, delivered, exhausted" (3, 1, 2)
    (sent, delivered, exhausted);
  Alcotest.(check bool) "equals the reference" true (r = reference)

let test_reuse_mid_walk_change_after_lookup () =
  let at2, fib, both = mid_walk_turn_setup () in
  let r, reference = both (fib (Float.succ at2)) in
  (* one ulp later packet 1 is delivered too, and only packet 2 loops *)
  let (sent, _, delivered, _, exhausted), _, _ = r in
  Alcotest.(check (triple int int int)) "sent, delivered, exhausted" (3, 2, 1)
    (sent, delivered, exhausted);
  Alcotest.(check bool) "equals the reference" true (r = reference)

(* Node 2 routes to node 1, which has no route until it gains one to the
   origin at [gain]: packets from node 2 are dropped at node 1, on their
   last lookup, until then. *)
let routeless_gain_setup () =
  let send, both = stream_setup ~n:3 ~ttl:16 ~src:2 ~window:(1., 1.3) in
  (* packet 1's lookup at node 1 *)
  let at1 = additions (send 1) 0.002 1 in
  let fib gain = fib_with ~n:3 [ (0., 2, Some 1); (gain, 1, Some 0) ] in
  (at1, fib, both)

let test_reuse_unreachable_gain_at_lookup () =
  let at1, fib, both = routeless_gain_setup () in
  let r, reference = both (fib at1) in
  let (sent, _, delivered, unreachable, _), _, _ = r in
  Alcotest.(check (triple int int int)) "sent, delivered, unreachable"
    (3, 2, 1) (sent, delivered, unreachable);
  Alcotest.(check bool) "equals the reference" true (r = reference)

let test_reuse_unreachable_gain_after_lookup () =
  let at1, fib, both = routeless_gain_setup () in
  let r, reference = both (fib (Float.succ at1)) in
  (* packet 1 may take packet 0's fate; packet 2 must not *)
  let (sent, _, delivered, unreachable, _), _, _ = r in
  Alcotest.(check (triple int int int)) "sent, delivered, unreachable"
    (3, 1, 2) (sent, delivered, unreachable);
  Alcotest.(check bool) "equals the reference" true (r = reference)

(* Node 4, off the chain 3 -> 2 -> 1 -> 0, changes at the very times
   packets from node 3 look up the chain's nodes, and once into the
   chain; a change on the chain ends the run of equal fates, and the
   loop it makes exhausts the rest. *)
let test_reuse_change_off_walk () =
  let send, both = stream_setup ~n:5 ~ttl:12 ~src:3 ~window:(1., 2.) in
  let lookup k i = additions (send k) 0.002 i in
  let fib =
    fib_with ~n:5
      ([ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0); (0., 4, Some 1) ]
      @ List.concat_map
          (fun k ->
            [
              (lookup k 0, 4, Some 3); (lookup k 1, 4, None);
              (lookup k 2, 4, Some 1);
            ])
          [ 1; 2; 3; 4 ]
      @ [ (lookup 6 2, 1, Some 2) ])
  in
  let r, reference = both fib in
  let (sent, _, delivered, _, exhausted), _, _ = r in
  Alcotest.(check (triple int int int)) "sent, delivered, exhausted"
    (10, 6, 4) (sent, delivered, exhausted);
  Alcotest.(check bool) "equals the reference" true (r = reference)

(* The same loop seen by one 9-hop packet from node 1 at [send]: its
   lookups at node 2 are on the odd hops.  Back at node 1 on hop 2 the
   walk jumps whole 2-hop laps, up to the last one whose last lookup
   falls before the repair. *)
let jump_boundary_setup () =
  let link_delay = 0.002 and ttl = 9 and seed = 3 and rate = 10. in
  let send = 1. +. Dessim.Rng.float (Dessim.Rng.create ~seed) (1. /. rate) in
  (* hop 7, at node 2: the last lookup of the third lap after hop 2's *)
  let last = additions send link_delay 7 in
  let walk fib =
    let go walk =
      fate_bits (walk ~origin:0 ~link_delay ~ttl ~src:1 ~send_time:send)
    in
    ( go (Traffic.Forwarder.walk (Traffic.Forwarder.compile fib)),
      go (ref_walk fib) )
  in
  let replay fib =
    let window = (1., 1.3) and sources = [ 1 ] in
    ( result_bits
        (Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay ~ttl ~rate ~window
           ~seed ~sources ()),
      result_bits
        (ref_result ~ratio_cutoff:1.3
           (ref_streams ~fib ~origin:0 ~n:3 ~link_delay ~ttl ~rate ~window ~seed
              ~sources ())) )
  in
  (last, walk, replay)

let fate_bits_t = Alcotest.(triple int int64 int)

let test_jump_change_at_last_lookup () =
  let last, walk, replay = jump_boundary_setup () in
  let fib = loop_repaired_at last in
  let plane, reference = walk fib in
  (* the jump stops a lap short: hop 7's lookup sees the repair *)
  Alcotest.check fate_bits_t "delivered on hop 8"
    (0, bits (additions last 0.002 1), 8)
    plane;
  Alcotest.check fate_bits_t "equals the reference" reference plane;
  let r, reference = replay fib in
  Alcotest.(check bool) "replay equals the reference" true (r = reference)

let test_jump_change_after_last_lookup () =
  let last, walk, replay = jump_boundary_setup () in
  let fib = loop_repaired_at (Float.succ last) in
  let plane, reference = walk fib in
  (* one ulp later the third lap is jumped too, and the TTL runs out *)
  Alcotest.check fate_bits_t "exhausted at node 2"
    (1, bits (additions last 0.002 2), 2) plane;
  Alcotest.check fate_bits_t "equals the reference" reference plane;
  let r, reference = replay fib in
  Alcotest.(check bool) "replay equals the reference" true (r = reference)

(* With no TTL to speak of, a packet caught in the loop of
   [test_walk_escapes_resolving_loop] jumps laps only up to the repair
   and is delivered; no probe of the jump may run toward the TTL. *)
let test_jump_unbounded_ttl () =
  let fib =
    fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1); (5.1, 2, Some 0) ]
  in
  let go walk =
    fate_bits
      (walk ~origin:0 ~link_delay:0.002 ~ttl:max_int ~src:1 ~send_time:5.)
  in
  let plane = go (Traffic.Forwarder.walk (Traffic.Forwarder.compile fib)) in
  Alcotest.check fate_bits_t "equals the reference" (go (ref_walk fib)) plane;
  let code, _, hops = plane in
  Alcotest.(check (pair int int))
    "delivered after the repair" (0, 52) (code, hops)

(* A case that caught a lap jump whose window reached back over hops an
   earlier jump had skipped.  Instants are the generator's [k *. 0.1];
   the walks share one plane, so cursors and the hop log carry over. *)
let test_jump_pinned_counterexample () =
  let at k = float_of_int k *. 0.1 in
  let changes =
    [
      (at 2, 1, Some 1); (at 6, 3, Some 5); (at 7, 0, Some 2);
      (at 9, 5, Some 1); (at 11, 3, Some 0); (at 12, 0, Some 5);
      (at 13, 5, Some 3); (at 16, 0, Some 3); (at 18, 1, Some 1);
    ]
  in
  let fib = fib_with ~n:6 changes in
  let plane = Traffic.Forwarder.compile fib in
  let origin = 1 and link_delay = 0.05 and ttl = 14 in
  List.iter
    (fun (t, _, _) ->
      List.iter
        (fun send_time ->
          for src = 0 to 5 do
            let go walk =
              fate_bits (walk ~origin ~link_delay ~ttl ~src ~send_time)
            in
            Alcotest.check fate_bits_t
              (Printf.sprintf "node %d at %h" src send_time)
              (go (ref_walk fib))
              (go (Traffic.Forwarder.walk plane))
          done)
        [ Float.pred t; t; Float.succ t ])
    changes

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "traffic"
    [
      ( "forwarder",
        [
          tc "delivers along a chain" test_walk_delivers;
          tc "zero-hop at origin" test_walk_at_origin;
          tc "unreachable" test_walk_unreachable;
          tc "loop exhausts TTL in 256 ms" test_walk_loop_exhausts_ttl;
          tc "escapes a resolving loop" test_walk_escapes_resolving_loop;
          tc "TTL boundary" test_walk_ttl_boundary;
          tc "validation" test_walk_validation;
          QCheck_alcotest.to_alcotest prop_advance_is_additions;
        ] );
      ( "replay",
        [
          tc "counts and rate" test_replay_counts_and_rate;
          tc "looping window" test_replay_loop_window;
          tc "ratio cutoff" test_replay_ratio_cutoff;
          tc "source subset" test_replay_sources_subset;
          tc "deterministic" test_replay_deterministic;
          tc "empty window" test_replay_empty_window;
          tc "validation" test_replay_validation;
          tc "exhaustion times sorted" test_replay_exhaustion_times_sorted;
          tc "fate time accessor" test_fate_time_accessor;
          tc "sparse rate" test_replay_sparse_rate;
        ] );
      ( "per-source",
        [
          tc "totals match aggregate replay" test_per_source_totals_match_replay;
          tc "identifies affected sources" test_per_source_identifies_affected;
          tc "paper footnote 4 on b-clique" test_per_source_footnote4_b_clique;
          tc "validation" test_per_source_validation;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_plane_matches_reference;
          tc "repair at a reused packet's last lookup"
            test_reuse_repair_at_last_lookup;
          tc "repair just after a reused packet's last lookup"
            test_reuse_repair_after_last_lookup;
          tc "change mid-walk at a reused packet's lookup"
            test_reuse_mid_walk_change_at_lookup;
          tc "change mid-walk just after a reused packet's lookup"
            test_reuse_mid_walk_change_after_lookup;
          tc "route gained at a reused unreachable packet's lookup"
            test_reuse_unreachable_gain_at_lookup;
          tc "route gained just after a reused unreachable packet's lookup"
            test_reuse_unreachable_gain_after_lookup;
          tc "changes off the walk inside a reuse run"
            test_reuse_change_off_walk;
          tc "repair at a jumped lap's last lookup"
            test_jump_change_at_last_lookup;
          tc "repair just after a jumped lap's last lookup"
            test_jump_change_after_last_lookup;
          tc "pinned lap-jump counterexample" test_jump_pinned_counterexample;
          tc "lap jumps under an unbounded TTL" test_jump_unbounded_ttl;
        ] );
    ]

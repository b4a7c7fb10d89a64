(* Per-event-kind profiling of the dessim engine.  The engine itself
   stays free of unix/obs dependencies: it exposes a step-profiler
   callback and per-event string tags, and [step] below supplies the
   actual timing around each executed event action. *)

(* Wall-time buckets: 0 .. 1 ms over 100 buckets (10 us each); virtual
   time buckets: 0 .. 100 s over 100 buckets.  Geometry is fixed so
   profiles from parallel workers merge without negotiation. *)
let wall_lo = 0.0
let wall_hi = 1e-3
let vtime_lo = 0.0
let vtime_hi = 100.0
let buckets = 100

type kind_stats = {
  mutable count : int;
  mutable wall_total_s : float;
  mutable minor_words : float;
  wall : Stats.Histogram.t;
  vtime : Stats.Histogram.t;
}

type t = { kinds : (string, kind_stats) Hashtbl.t }

let create () = { kinds = Hashtbl.create 16 }

let kind_stats t tag =
  match Hashtbl.find_opt t.kinds tag with
  | Some ks -> ks
  | None ->
      let ks =
        {
          count = 0;
          wall_total_s = 0.0;
          minor_words = 0.0;
          wall = Stats.Histogram.create ~lo:wall_lo ~hi:wall_hi ~buckets;
          vtime = Stats.Histogram.create ~lo:vtime_lo ~hi:vtime_hi ~buckets;
        }
      in
      Hashtbl.add t.kinds tag ks;
      ks

let record ?(minor_words = 0.0) t ~tag ~time ~wall_s =
  let ks = kind_stats t tag in
  ks.count <- ks.count + 1;
  ks.wall_total_s <- ks.wall_total_s +. wall_s;
  ks.minor_words <- ks.minor_words +. minor_words;
  Stats.Histogram.add ks.wall wall_s;
  Stats.Histogram.add ks.vtime time

(* Both probes are unboxed externals in native code, so the words
   counted are the event action's own. *)
let step t ~time ~tag ~run =
  let tag = match tag with Some s -> s | None -> "untagged" in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  run ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  record ~minor_words t ~tag ~time ~wall_s

let merge_into ~src ~dst =
  Hashtbl.to_seq src.kinds |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (tag, (ks : kind_stats)) ->
         let acc = kind_stats dst tag in
         acc.count <- acc.count + ks.count;
         acc.wall_total_s <- acc.wall_total_s +. ks.wall_total_s;
         acc.minor_words <- acc.minor_words +. ks.minor_words;
         Stats.Histogram.merge_into ~src:ks.wall ~dst:acc.wall;
         Stats.Histogram.merge_into ~src:ks.vtime ~dst:acc.vtime)

let kinds t =
  Hashtbl.to_seq t.kinds |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  f "profile (per event tag):@\n";
  f "  %-16s %10s %14s %12s %12s@\n" "tag" "count" "wall total s" "mean us"
    "words/event";
  List.iter
    (fun (tag, ks) ->
      let per x = if ks.count = 0 then 0.0 else x /. float_of_int ks.count in
      f "  %-16s %10d %14.6f %12.2f %12.2f@\n" tag ks.count ks.wall_total_s
        (per ks.wall_total_s *. 1e6)
        (per ks.minor_words))
    (kinds t)

(* Per-event-kind profiling of the dessim engine.  The engine itself
   stays free of unix/obs dependencies: it exposes a step-profiler
   callback and per-event string tags, and [step] below supplies the
   actual timing around each executed event action. *)

type kind_stats = {
  mutable count : int;
  mutable wall_total_s : float;
  mutable minor_words : float;
}

type t = { kinds : (string, kind_stats) Hashtbl.t }

let create () = { kinds = Hashtbl.create 16 }

let kind_stats t tag =
  match Hashtbl.find_opt t.kinds tag with
  | Some ks -> ks
  | None ->
      let ks = { count = 0; wall_total_s = 0.0; minor_words = 0.0 } in
      Hashtbl.add t.kinds tag ks;
      ks

let record ?(minor_words = 0.0) t ~tag ~wall_s =
  let ks = kind_stats t tag in
  ks.count <- ks.count + 1;
  ks.wall_total_s <- ks.wall_total_s +. wall_s;
  ks.minor_words <- ks.minor_words +. minor_words

(* Both probes are unboxed externals in native code, so the words
   counted are the event action's own. *)
let step t ~tag ~run =
  let tag = match tag with Some s -> s | None -> "untagged" in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  run ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  record ~minor_words t ~tag ~wall_s

let merge_into ~src ~dst =
  Hashtbl.to_seq src.kinds |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (tag, (ks : kind_stats)) ->
         let acc = kind_stats dst tag in
         acc.count <- acc.count + ks.count;
         acc.wall_total_s <- acc.wall_total_s +. ks.wall_total_s;
         acc.minor_words <- acc.minor_words +. ks.minor_words)

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

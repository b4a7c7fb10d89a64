(* Small helpers shared by the workloads: clocks, the percentile rule,
   metric-name validation, outcome digests and the JSON result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated so far on this domain. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of [a] (which must be sorted): the smallest
   sample with at least [p] of the samples at or below it. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "nearest_rank: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* The percentile rule: among the candidates up to [cap], the highest
   percentile that leaves at least ten samples beyond it.  [None] when
   even the median does not, in which case callers report the
   maximum. *)
let tail_percentile ~cap n =
  List.fold_left
    (fun acc p -> if p <= cap && beyond n p >= 10 then Some p else acc)
    None [ 0.5; 0.9; 0.99 ]

(* Median and tail of [samples]; the tail is the maximum when the rule
   finds no percentile. *)
let summarize ~cap samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let tail =
    match tail_percentile ~cap n with
    | Some p -> nearest_rank a p
    | None -> a.(n - 1)
  in
  (nearest_rank a 0.5, tail, tail_percentile ~cap n)

(* Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
   letter or digit. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let md5 s = Digest.to_hex (Digest.string s)

(* Floats enter digests in hex notation, so equal digests mean
   bit-identical values. *)
let fl = Printf.sprintf "%h"

(* Fields of one experiment's metrics, everything except its wall
   clock. *)
let metrics_digest (m : Metrics.Run_metrics.t) =
  md5
    (String.concat ","
       [
         fl m.convergence_time; fl m.overall_looping_duration;
         string_of_int m.ttl_exhaustions; string_of_int m.packets_sent;
         fl m.looping_ratio; string_of_int m.packets_delivered;
         string_of_int m.packets_unreachable; string_of_int m.updates_sent;
         string_of_int m.withdrawals_sent; string_of_int m.route_changes;
         string_of_int m.loop_count; fl m.loop_mean_size;
         string_of_int m.loop_max_size; fl m.loop_mean_duration;
         fl m.loop_max_duration; string_of_int m.max_concurrent_loops;
         string_of_bool m.converged; string_of_int m.invariant_violations;
         string_of_int m.events_executed;
       ])

(* Recorded outcome digests for the default seed, one "key md5" pair
   per line. *)
let load_expected path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec loop acc =
      match input_line ic with
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ key; hex ] when key <> "" && key.[0] <> '#' ->
              loop ((key, hex) :: acc)
          | _ -> loop acc)
      | exception End_of_file -> List.rev acc
    in
    let r = loop [] in
    close_in ic;
    r
  end

type metric = { name : string; unit_ : string; value : float }

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name) then
        invalid_arg (Printf.sprintf "invalid metric name %S" m.name))
    metrics;
  let value v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (value m.value) m.unit_)
          metrics))

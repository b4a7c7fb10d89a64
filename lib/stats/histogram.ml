type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~buckets =
  if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int buckets;
    counts = Array.make buckets 0;
    total = 0;
  }

let bucket_of t x =
  let n = Array.length t.counts in
  if x < t.lo then 0
  else if x >= t.hi then n - 1
  else
    let i = int_of_float ((x -. t.lo) /. t.width) in
    Stdlib.min i (n - 1)

let add t x =
  let i = bucket_of t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let check_index t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram: bucket index out of range"

let bucket_count t i =
  check_index t i;
  t.counts.(i)

let bucket_range t i =
  check_index t i;
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let to_list t =
  List.init (Array.length t.counts) (fun i ->
      (bucket_range t i, t.counts.(i)))

let pp fmt t =
  List.iter
    (fun ((lo, hi), c) ->
      if c > 0 then Format.fprintf fmt "%.3g..%.3g: %d@." lo hi c)
    (to_list t)

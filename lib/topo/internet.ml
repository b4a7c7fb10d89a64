type params = {
  n : int;
  dual_home_fraction : float;
  uniform_attach_fraction : float;
  core_fraction : float;
  core_extra_edges : int;
}

let default_params ~n =
  {
    n;
    dual_home_fraction = 0.45;
    uniform_attach_fraction = 0.4;
    core_fraction = 0.1;
    core_extra_edges = n / 10;
  }

let validate p =
  if p.n < 3 then invalid_arg "Internet.generate: n >= 3 required";
  if p.dual_home_fraction < 0. || p.dual_home_fraction > 1. then
    invalid_arg "Internet.generate: dual_home_fraction outside [0, 1]";
  if p.uniform_attach_fraction < 0. || p.uniform_attach_fraction > 1. then
    invalid_arg "Internet.generate: uniform_attach_fraction outside [0, 1]";
  if p.core_fraction <= 0. || p.core_fraction > 1. then
    invalid_arg "Internet.generate: core_fraction outside (0, 1]";
  if p.core_extra_edges < 0 then
    invalid_arg "Internet.generate: negative core_extra_edges"

(* Pick a node other than [skip] with probability proportional to its
   degree, among the nodes below a bound whose degrees, [skip]'s left
   out, add up to [total]: one draw, then a scan of the running sums
   from node 0, which stops before the bound. *)
let preferential_pick rng degrees ~total ~skip =
  if total = 0 then None
  else begin
    let target = Dessim.Rng.int rng total in
    let acc = ref 0 and v = ref (-1) in
    while !acc <= target do
      incr v;
      if !v <> skip then acc := !acc + degrees.(!v)
    done;
    Some !v
  end

let generate ?params ~seed n =
  let p = match params with None -> default_params ~n | Some p -> p in
  if p.n <> n then invalid_arg "Internet.generate: params.n <> n";
  validate p;
  let rng = Dessim.Rng.create ~seed in
  let degrees = Array.make n 0 and degree_sum = ref 0 in
  let edges = ref [] and present = Hashtbl.create (2 * n) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let add_edge u v =
    edges := (u, v) :: !edges;
    Hashtbl.replace present (key u v) ();
    degrees.(u) <- degrees.(u) + 1;
    degrees.(v) <- degrees.(v) + 1;
    degree_sum := !degree_sum + 2
  in
  (* seed triangle: the embryonic core *)
  add_edge 0 1;
  add_edge 1 2;
  add_edge 0 2;
  (* Growth: each joining AS attaches to one or two providers.  A
     preferential pick grows the high-degree transit core; a uniform
     pick hangs the new AS off an arbitrary existing one, producing the
     low-degree tendrils of real AS graphs — the regional chains that
     make failover paths several hops longer than the failed primary,
     which in turn drives the multi-round path exploration behind
     T_long transients. *)
  let pick_provider ~upto ~total ~skip =
    let uniform () =
      let rec draw tries =
        if tries = 0 then None
        else
          let u = Dessim.Rng.int rng upto in
          if u = skip then draw (tries - 1) else Some u
      in
      draw 16
    in
    if Dessim.Rng.float rng 1.0 < p.uniform_attach_fraction then
      match uniform () with
      | Some u -> Some u
      | None -> preferential_pick rng degrees ~total ~skip
    else preferential_pick rng degrees ~total ~skip
  in
  for v = 3 to n - 1 do
    (* the nodes past [v] have not joined, so the degree total below [v]
       is the whole total less [v]'s *)
    let first =
      match
        pick_provider ~upto:v ~total:(!degree_sum - degrees.(v)) ~skip:(-1)
      with
      | Some u -> u
      | None -> assert false (* seed triangle guarantees a candidate *)
    in
    add_edge v first;
    if Dessim.Rng.float rng 1.0 < p.dual_home_fraction then
      match
        pick_provider ~upto:v
          ~total:(!degree_sum - degrees.(v) - degrees.(first))
          ~skip:first
      with
      | Some second -> add_edge v second
      | None -> ()
  done;
  (* extra peering edges meshed among the highest-degree (core) nodes *)
  let core_size =
    Stdlib.max 3 (int_of_float (Float.round (p.core_fraction *. float_of_int n)))
  in
  let by_degree = Array.init n Fun.id in
  Array.sort (fun a b -> compare degrees.(b) degrees.(a)) by_degree;
  let core = Array.sub by_degree 0 (Stdlib.min core_size n) in
  let added = ref 0 and attempts = ref 0 in
  let max_attempts = 50 * (p.core_extra_edges + 1) in
  while !added < p.core_extra_edges && !attempts < max_attempts do
    incr attempts;
    let i = Dessim.Rng.int rng (Array.length core) in
    let j = Dessim.Rng.int rng (Array.length core) in
    let u = core.(i) and v = core.(j) in
    if u <> v && not (Hashtbl.mem present (key u v)) then begin
      add_edge u v;
      incr added
    end
  done;
  let g = Graph.create ~n ~edges:!edges in
  assert (Graph.is_connected g);
  g

let stub_nodes = Graph.min_degree_nodes

let degree_stats g =
  let ds =
    Array.of_list
      (List.map (fun v -> float_of_int (Graph.degree g v)) (Graph.nodes g))
  in
  Stats.Descriptive.summarize ds

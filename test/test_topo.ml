(* Tests for the topology library: graph core, generators, the
   Internet-like AS graph generator and serialization. *)

(* --- Graph --- *)

let test_graph_basic () =
  let g = Topo.Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "nodes" 4 (Topo.Graph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Topo.Graph.n_edges g);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ]
    (Topo.Graph.neighbors g 1);
  Alcotest.(check int) "degree of 0" 1 (Topo.Graph.degree g 0);
  Alcotest.(check bool) "has edge" true (Topo.Graph.has_edge g 2 1);
  Alcotest.(check bool) "no edge" false (Topo.Graph.has_edge g 0 3)

let test_graph_rejects_self_loop () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topo.Graph.create ~n:2 ~edges:[ (1, 1) ]);
       false
     with Invalid_argument _ -> true)

let test_graph_rejects_duplicate () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topo.Graph.create ~n:3 ~edges:[ (0, 1); (1, 0) ]);
       false
     with Invalid_argument _ -> true)

let test_graph_rejects_out_of_range () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topo.Graph.create ~n:2 ~edges:[ (0, 2) ]);
       false
     with Invalid_argument _ -> true)

let test_graph_edges_sorted () =
  let g = Topo.Graph.create ~n:4 ~edges:[ (3, 2); (1, 0); (2, 0) ] in
  Alcotest.(check (list (pair int int)))
    "canonical" [ (0, 1); (0, 2); (2, 3) ] (Topo.Graph.edges g)

let test_graph_connectivity () =
  let connected = Topo.Graph.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let disconnected = Topo.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected connected);
  Alcotest.(check bool) "disconnected" false
    (Topo.Graph.is_connected disconnected);
  Alcotest.(check bool) "empty is connected" true
    (Topo.Graph.is_connected (Topo.Graph.create ~n:0 ~edges:[]))

let test_graph_bfs () =
  let g = Topo.Graph.create ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3) ] in
  let d = Topo.Graph.bfs_distances g ~from:0 in
  Alcotest.(check int) "d(0)" 0 d.(0);
  Alcotest.(check int) "d(3)" 3 d.(3);
  Alcotest.(check bool) "unreachable" true (d.(4) = max_int)

let test_graph_remove_edge () =
  let g = Topo.Graph.create ~n:3 ~edges:[ (0, 1); (1, 2); (0, 2) ] in
  let g' = Topo.Graph.remove_edge g 0 1 in
  Alcotest.(check bool) "edge gone" false (Topo.Graph.has_edge g' 0 1);
  Alcotest.(check int) "others kept" 2 (Topo.Graph.n_edges g');
  Alcotest.(check bool) "original intact" true (Topo.Graph.has_edge g 0 1);
  Alcotest.(check bool) "raises on absent" true
    (try
       ignore (Topo.Graph.remove_edge g' 0 1);
       false
     with Invalid_argument _ -> true)

let test_graph_min_degree_nodes () =
  let g = Topo.Graph.create ~n:4 ~edges:[ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  Alcotest.(check (list int)) "stubs" [ 3 ] (Topo.Graph.min_degree_nodes g)

(* --- Bridges --- *)

(* The definition [Graph.bridges] must meet: (u, v) is a bridge iff v
   is unreachable from u once the link itself is blocked. *)
let reference_bridges g =
  List.filter
    (fun (u, v) ->
      not (Topo.Graph.reachable g ~from:u ~blocked_links:[ (u, v) ] ()).(v))
    (Topo.Graph.edges g)

let check_bridges name expected g =
  Alcotest.(check (list (pair int int))) name expected (Topo.Graph.bridges g)

let test_bridges_small () =
  let create n edges = Topo.Graph.create ~n ~edges in
  check_bridges "empty graph" [] (create 0 []);
  check_bridges "single edge" [ (0, 1) ] (create 2 [ (1, 0) ]);
  check_bridges "triangle" [] (create 3 [ (0, 1); (1, 2); (0, 2) ]);
  check_bridges "two triangles joined by one edge" [ (2, 3) ]
    (create 6 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5); (3, 5) ]);
  check_bridges "barbell" [ (2, 3) ] (Topo.Generators.barbell 3)

let test_bridges_long_chain () =
  let g = Topo.Generators.chain 200_000 in
  (* a 64k-word stack holds the iterative DFS, but not the 200,000
     nested calls a recursive DFS makes down this path *)
  let gc = Gc.get () in
  let bridges =
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () ->
        Gc.set { gc with stack_limit = 65_536 };
        Topo.Graph.bridges g)
  in
  Alcotest.(check int) "every edge" 199_999 (List.length bridges);
  Alcotest.(check bool) "in edge order" true (bridges = Topo.Graph.edges g)

let prop_bridges_match_reference =
  QCheck.Test.make ~name:"bridges = links whose loss separates their ends"
    ~count:2000 ~long_factor:50 Graph_gen.arbitrary (fun g ->
      Topo.Graph.bridges g = reference_bridges g)

(* --- Generators --- *)

let test_clique () =
  let g = Topo.Generators.clique 5 in
  Alcotest.(check int) "nodes" 5 (Topo.Graph.n_nodes g);
  Alcotest.(check int) "edges" 10 (Topo.Graph.n_edges g);
  List.iter
    (fun v -> Alcotest.(check int) "degree" 4 (Topo.Graph.degree g v))
    (Topo.Graph.nodes g)

let test_chain () =
  let g = Topo.Generators.chain 4 in
  Alcotest.(check int) "edges" 3 (Topo.Graph.n_edges g);
  Alcotest.(check int) "end degree" 1 (Topo.Graph.degree g 0);
  Alcotest.(check int) "middle degree" 2 (Topo.Graph.degree g 1)

let test_ring () =
  let g = Topo.Generators.ring 5 in
  Alcotest.(check int) "edges" 5 (Topo.Graph.n_edges g);
  List.iter
    (fun v -> Alcotest.(check int) "degree 2" 2 (Topo.Graph.degree g v))
    (Topo.Graph.nodes g)

let test_star () =
  let g = Topo.Generators.star 6 in
  Alcotest.(check int) "hub degree" 5 (Topo.Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Topo.Graph.degree g 3)

let test_b_clique_structure () =
  (* paper Fig. 3b: chain 0..n-1, clique n..2n-1, plus links (0,n) and
     (n-1, 2n-1) *)
  let n = 4 in
  let g = Topo.Generators.b_clique n in
  Alcotest.(check int) "nodes" (2 * n) (Topo.Graph.n_nodes g);
  Alcotest.(check bool) "chain edge" true (Topo.Graph.has_edge g 1 2);
  Alcotest.(check bool) "clique edge" true (Topo.Graph.has_edge g 4 7);
  Alcotest.(check bool) "destination's core link" true
    (Topo.Graph.has_edge g 0 n);
  Alcotest.(check bool) "chain-to-core link" true
    (Topo.Graph.has_edge g (n - 1) ((2 * n) - 1));
  (* chain chord absent *)
  Alcotest.(check bool) "no chord" false (Topo.Graph.has_edge g 0 2);
  Alcotest.(check int) "edge count"
    ((n - 1) + (n * (n - 1) / 2) + 2)
    (Topo.Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g)

let test_b_clique_backup_path_exists () =
  let n = 5 in
  let g = Topo.Generators.b_clique n in
  let without = Topo.Graph.remove_edge g 0 n in
  Alcotest.(check bool) "still connected after T_long failure" true
    (Topo.Graph.is_connected without);
  let d = Topo.Graph.bfs_distances without ~from:0 in
  (* backup path to core node n runs down the whole chain (n-1 hops),
     across to the far clique node, and one clique hop: n+1 total *)
  Alcotest.(check int) "long backup" (n + 1) d.(n)

let test_balanced_tree () =
  let g = Topo.Generators.balanced_tree ~depth:2 ~fanout:3 in
  Alcotest.(check int) "nodes" 13 (Topo.Graph.n_nodes g);
  Alcotest.(check int) "edges" 12 (Topo.Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g)

let test_grid () =
  let g = Topo.Generators.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "nodes" 12 (Topo.Graph.n_nodes g);
  Alcotest.(check int) "edges" 17 (Topo.Graph.n_edges g);
  Alcotest.(check int) "corner degree" 2 (Topo.Graph.degree g 0)

let test_barbell () =
  let g = Topo.Generators.barbell 3 in
  Alcotest.(check int) "nodes" 6 (Topo.Graph.n_nodes g);
  Alcotest.(check bool) "bridge" true (Topo.Graph.has_edge g 2 3);
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g)

let test_generators_reject_bad_sizes () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "clique 0" true (raises (fun () -> Topo.Generators.clique 0));
  Alcotest.(check bool) "ring 2" true (raises (fun () -> Topo.Generators.ring 2));
  Alcotest.(check bool) "star 1" true (raises (fun () -> Topo.Generators.star 1));
  Alcotest.(check bool) "b_clique 1" true
    (raises (fun () -> Topo.Generators.b_clique 1));
  Alcotest.(check bool) "grid 0" true
    (raises (fun () -> Topo.Generators.grid ~rows:0 ~cols:3))

(* --- Internet generator --- *)

let test_internet_connected_and_sized () =
  List.iter
    (fun n ->
      let g = Topo.Internet.generate ~seed:1 n in
      Alcotest.(check int) "nodes" n (Topo.Graph.n_nodes g);
      Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g))
    [ 29; 48; 75; 110 ]

let test_internet_deterministic () =
  let a = Topo.Internet.generate ~seed:42 50 in
  let b = Topo.Internet.generate ~seed:42 50 in
  Alcotest.(check (list (pair int int)))
    "same seed, same graph" (Topo.Graph.edges a) (Topo.Graph.edges b)

let test_internet_seed_variation () =
  let a = Topo.Internet.generate ~seed:1 50 in
  let b = Topo.Internet.generate ~seed:2 50 in
  Alcotest.(check bool) "seeds differ" true
    (Topo.Graph.edges a <> Topo.Graph.edges b)

let test_internet_heavy_tail () =
  let g = Topo.Internet.generate ~seed:1 110 in
  let stats = Topo.Internet.degree_stats g in
  (* heavy tail: the max degree is far above the median *)
  Alcotest.(check bool) "hub exists" true (stats.max >= 3. *. stats.median);
  Alcotest.(check bool) "stubs exist" true (stats.min <= 2.)

let test_internet_stub_nodes () =
  let g = Topo.Internet.generate ~seed:1 50 in
  let stubs = Topo.Internet.stub_nodes g in
  Alcotest.(check bool) "nonempty" true (stubs <> []);
  let dmin =
    List.fold_left
      (fun acc v -> Stdlib.min acc (Topo.Graph.degree g v))
      max_int (Topo.Graph.nodes g)
  in
  List.iter
    (fun v -> Alcotest.(check int) "minimal degree" dmin (Topo.Graph.degree g v))
    stubs

let test_internet_rejects_small () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topo.Internet.generate ~seed:1 2);
       false
     with Invalid_argument _ -> true)

(* The reference: the generator as first written, which re-sums every
   earlier degree on each preferential pick and scans the edge list for
   each core peering.  Same draws, same edges, in the same order. *)
let reference_internet ?params ~seed n =
  let p =
    match params with None -> Topo.Internet.default_params ~n | Some p -> p
  in
  let rng = Dessim.Rng.create ~seed in
  let degrees = Array.make n 0 in
  let edges = ref [] in
  let add_edge u v =
    edges := (u, v) :: !edges;
    degrees.(u) <- degrees.(u) + 1;
    degrees.(v) <- degrees.(v) + 1
  in
  let preferential_pick ~upto ~excluded =
    let total = ref 0 in
    for v = 0 to upto - 1 do
      if not (List.mem v excluded) then total := !total + degrees.(v)
    done;
    if !total = 0 then None
    else begin
      let target = Dessim.Rng.int rng !total in
      let acc = ref 0 and found = ref (-1) in
      let v = ref 0 in
      while !found < 0 && !v < upto do
        if not (List.mem !v excluded) then begin
          acc := !acc + degrees.(!v);
          if !acc > target then found := !v
        end;
        incr v
      done;
      if !found < 0 then None else Some !found
    end
  in
  add_edge 0 1;
  add_edge 1 2;
  add_edge 0 2;
  let pick_provider ~upto ~excluded =
    let uniform () =
      let rec draw tries =
        if tries = 0 then None
        else
          let u = Dessim.Rng.int rng upto in
          if List.mem u excluded then draw (tries - 1) else Some u
      in
      draw 16
    in
    if Dessim.Rng.float rng 1.0 < p.uniform_attach_fraction then
      match uniform () with
      | Some u -> Some u
      | None -> preferential_pick ~upto ~excluded
    else preferential_pick ~upto ~excluded
  in
  for v = 3 to n - 1 do
    let first = Option.get (pick_provider ~upto:v ~excluded:[]) in
    add_edge v first;
    if Dessim.Rng.float rng 1.0 < p.dual_home_fraction then
      match pick_provider ~upto:v ~excluded:[ first; v ] with
      | Some second -> add_edge v second
      | None -> ()
  done;
  let core_size =
    Stdlib.max 3
      (int_of_float (Float.round (p.core_fraction *. float_of_int n)))
  in
  let by_degree = Array.init n Fun.id in
  Array.sort (fun a b -> compare degrees.(b) degrees.(a)) by_degree;
  let core = Array.sub by_degree 0 (Stdlib.min core_size n) in
  let has u v =
    List.exists (fun (a, b) -> (a = u && b = v) || (a = v && b = u)) !edges
  in
  let added = ref 0 and attempts = ref 0 in
  let max_attempts = 50 * (p.core_extra_edges + 1) in
  while !added < p.core_extra_edges && !attempts < max_attempts do
    incr attempts;
    let i = Dessim.Rng.int rng (Array.length core) in
    let j = Dessim.Rng.int rng (Array.length core) in
    let u = core.(i) and v = core.(j) in
    if u <> v && not (has u v) then begin
      add_edge u v;
      incr added
    end
  done;
  Topo.Graph.create ~n ~edges:!edges

let same_as_reference ?params ~seed n =
  Topo.Graph.edges (Topo.Internet.generate ?params ~seed n)
  = Topo.Graph.edges (reference_internet ?params ~seed n)

let test_internet_1000_matches_reference () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "internet-1000, seed %d" seed)
        true
        (same_as_reference ~seed 1000))
    [ 1; 2 ]

(* n = 3-300 and seeds 1-6 under the default parameters, and now and
   then every fraction at 0, its default or 1 with a core of a tenth,
   half or all of the nodes, so that uniform draws run out and fall back
   to the preferential pick *)
let prop_internet_matches_reference =
  QCheck.Test.make ~name:"internet generator = quadratic reference"
    ~count:200 ~long_factor:25
    QCheck.(
      make
        ~print:(fun (n, seed, params) ->
          Printf.sprintf "n=%d seed=%d params=%s" n seed
            (match params with
            | None -> "default"
            | Some (p : Topo.Internet.params) ->
                Printf.sprintf "dual=%g uniform=%g core=%g extra=%d"
                  p.dual_home_fraction p.uniform_attach_fraction
                  p.core_fraction p.core_extra_edges))
        Gen.(
          int_range 3 300 >>= fun n ->
          int_range 1 6 >>= fun seed ->
          let fraction = oneofl [ 0.; 0.45; 1. ] in
          frequency
            [
              (3, return None);
              ( 1,
                map
                  (fun (((dual, uniform), core), extra) ->
                    Some
                      {
                        Topo.Internet.n;
                        dual_home_fraction = dual;
                        uniform_attach_fraction = uniform;
                        core_fraction = core;
                        core_extra_edges = extra;
                      })
                  (pair
                     (pair (pair fraction fraction) (oneofl [ 0.1; 0.5; 1. ]))
                     (oneofl [ 0; n / 10; n ])) );
            ]
          >>= fun params -> return (n, seed, params)))
    (fun (n, seed, params) -> same_as_reference ?params ~seed n)

(* --- Graph_metrics --- *)

let test_metrics_clique () =
  let m = Topo.Graph_metrics.compute (Topo.Generators.clique 5) in
  Alcotest.(check int) "diameter" 1 m.diameter;
  Alcotest.(check (float 1e-9)) "mean path" 1. m.mean_path_length;
  Alcotest.(check (float 1e-9)) "clustering" 1. m.clustering;
  Alcotest.(check (float 1e-9)) "mean degree" 4. m.mean_degree;
  Alcotest.(check (list (pair int int))) "histogram" [ (4, 5) ]
    m.degree_histogram

let test_metrics_chain () =
  let m = Topo.Graph_metrics.compute (Topo.Generators.chain 5) in
  Alcotest.(check int) "diameter" 4 m.diameter;
  Alcotest.(check (float 1e-9)) "no triangles" 0. m.clustering;
  Alcotest.(check int) "min degree" 1 m.min_degree;
  Alcotest.(check int) "max degree" 2 m.max_degree;
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 3) ]
    m.degree_histogram

let test_metrics_star_mean_path () =
  (* star-4: hub at distance 1 from all leaves, leaves at 2 from each
     other; ordered pairs: 6 at distance 1, 6 at distance 2 *)
  let m = Topo.Graph_metrics.compute (Topo.Generators.star 4) in
  Alcotest.(check (float 1e-9)) "mean path" 1.5 m.mean_path_length;
  Alcotest.(check int) "diameter" 2 m.diameter

let test_metrics_rejects_disconnected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Topo.Graph_metrics.compute (Topo.Graph.create ~n:3 ~edges:[ (0, 1) ]));
       false
     with Invalid_argument _ -> true)

let test_metrics_internet_documented_shape () =
  (* the properties EXPERIMENTS.md cites for the substitution *)
  let m = Topo.Graph_metrics.compute (Topo.Internet.generate ~seed:1 110) in
  Alcotest.(check int) "stubs exist" 1 m.min_degree;
  Alcotest.(check bool) "heavy tail" true
    (float_of_int m.max_degree > 3. *. m.mean_degree);
  Alcotest.(check bool) "small world" true (m.diameter <= 12)

(* --- Topo_io --- *)

let test_io_roundtrip () =
  let g = Topo.Generators.b_clique 4 in
  let g' = Topo.Topo_io.of_edge_list (Topo.Topo_io.to_edge_list g) in
  Alcotest.(check (list (pair int int)))
    "roundtrip" (Topo.Graph.edges g) (Topo.Graph.edges g')

let test_io_comments_and_blanks () =
  let text = "# AS graph\nn 3\n\n0 1\n# a comment\n1 2\n" in
  let g = Topo.Topo_io.of_edge_list text in
  Alcotest.(check int) "edges" 2 (Topo.Graph.n_edges g)

let test_io_rejects_garbage () =
  (* rejected by the parser itself, not by an exception escaping from
     deeper down *)
  let raises text =
    try
      ignore (Topo.Topo_io.of_edge_list text);
      false
    with Invalid_argument msg ->
      String.starts_with ~prefix:"Topo_io.of_edge_list:" msg
  in
  Alcotest.(check bool) "empty" true (raises "");
  Alcotest.(check bool) "no header" true (raises "0 1\n");
  Alcotest.(check bool) "bad edge" true (raises "n 2\nzero one\n");
  (* a node count above edges + 1 is rejected before anything of size
     n is allocated *)
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let before = words () in
  Alcotest.(check bool) "huge node count" true (raises "n 30000000\n0 1\n");
  let allocated = words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "huge node count allocates %.0f words < 1 M" allocated)
    true (allocated < 1e6);
  Alcotest.(check bool) "overflowing node count" true
    (raises "n 4611686018427387903\n0 1\n")

let test_io_dot_contains_edges () =
  let g = Topo.Generators.chain 3 in
  let dot = Topo.Topo_io.to_dot g in
  Alcotest.(check bool) "has edge line" true
    (let contains ~needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
       scan 0
     in
     contains ~needle:"0 -- 1;" dot && contains ~needle:"1 -- 2;" dot)

(* --- Random_graphs --- *)

let test_waxman_connected_and_deterministic () =
  let a = Topo.Random_graphs.waxman ~seed:5 40 in
  let b = Topo.Random_graphs.waxman ~seed:5 40 in
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected a);
  Alcotest.(check (list (pair int int)))
    "deterministic" (Topo.Graph.edges a) (Topo.Graph.edges b);
  let c = Topo.Random_graphs.waxman ~seed:6 40 in
  Alcotest.(check bool) "seed varies" true
    (Topo.Graph.edges a <> Topo.Graph.edges c)

let test_waxman_density_grows_with_alpha () =
  let sparse = Topo.Random_graphs.waxman ~alpha:0.1 ~seed:1 60 in
  let dense = Topo.Random_graphs.waxman ~alpha:0.9 ~seed:1 60 in
  Alcotest.(check bool) "alpha controls density" true
    (Topo.Graph.n_edges dense > Topo.Graph.n_edges sparse)

let test_waxman_validation () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "n" true
    (raises (fun () -> Topo.Random_graphs.waxman ~seed:1 1));
  Alcotest.(check bool) "alpha" true
    (raises (fun () -> Topo.Random_graphs.waxman ~alpha:0. ~seed:1 5));
  Alcotest.(check bool) "beta" true
    (raises (fun () -> Topo.Random_graphs.waxman ~beta:1.5 ~seed:1 5))

let test_glp_connected_heavy_tail () =
  let g = Topo.Random_graphs.glp ~m:2 ~seed:3 80 in
  Alcotest.(check bool) "connected" true (Topo.Graph.is_connected g);
  let m = Topo.Graph_metrics.compute g in
  Alcotest.(check bool) "heavy tail" true
    (float_of_int m.max_degree > 2.5 *. m.mean_degree)

let test_glp_m_controls_density () =
  let thin = Topo.Random_graphs.glp ~m:1 ~seed:1 50 in
  let thick = Topo.Random_graphs.glp ~m:3 ~seed:1 50 in
  Alcotest.(check bool) "density" true
    (Topo.Graph.n_edges thick > Topo.Graph.n_edges thin)

let test_glp_validation () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "m" true
    (raises (fun () -> Topo.Random_graphs.glp ~m:0 ~seed:1 5));
  Alcotest.(check bool) "beta" true
    (raises (fun () -> Topo.Random_graphs.glp ~beta:1. ~seed:1 5))

let prop_random_graphs_connected =
  QCheck.Test.make ~name:"waxman and glp always connect" ~count:40
    QCheck.(pair small_nat (make (QCheck.Gen.int_range 2 60)))
    (fun (seed, n) ->
      Topo.Graph.is_connected (Topo.Random_graphs.waxman ~seed n)
      && Topo.Graph.is_connected (Topo.Random_graphs.glp ~seed n))

(* --- As_rel --- *)

let sample_rel_file =
  "# CAIDA serial-1 sample\n\
   100|200|-1\n\
   100|300|-1\n\
   200|300|0\n\
   200|400|-1\n"

let test_as_rel_parses () =
  let t = Topo.As_rel.parse sample_rel_file in
  let g = Topo.As_rel.graph t in
  Alcotest.(check int) "nodes" 4 (Topo.Graph.n_nodes g);
  Alcotest.(check int) "edges" 4 (Topo.Graph.n_edges g);
  Alcotest.(check bool) "asn mapping" true
    (Topo.As_rel.node_of_asn t 400 <> None);
  Alcotest.(check bool) "unknown asn" true (Topo.As_rel.node_of_asn t 999 = None)

let test_as_rel_relationships () =
  let t = Topo.As_rel.parse sample_rel_file in
  let node asn = Option.get (Topo.As_rel.node_of_asn t asn) in
  (* 100 is 200's provider *)
  Alcotest.(check bool) "provider view" true
    (Topo.As_rel.relationship t (node 200) (node 100) = `Provider);
  Alcotest.(check bool) "customer view" true
    (Topo.As_rel.relationship t (node 100) (node 200) = `Customer);
  Alcotest.(check bool) "peer view" true
    (Topo.As_rel.relationship t (node 200) (node 300) = `Peer);
  Alcotest.(check bool) "asn roundtrip" true
    (Topo.As_rel.asn_of_node t (node 400) = 400)

let test_as_rel_roundtrip () =
  let t = Topo.As_rel.parse sample_rel_file in
  let t' = Topo.As_rel.parse (Topo.As_rel.to_string t) in
  Alcotest.(check int) "same edges"
    (Topo.Graph.n_edges (Topo.As_rel.graph t))
    (Topo.Graph.n_edges (Topo.As_rel.graph t'));
  (* relationships survive the roundtrip *)
  let node tt asn = Option.get (Topo.As_rel.node_of_asn tt asn) in
  Alcotest.(check bool) "rel survives" true
    (Topo.As_rel.relationship t (node t 100) (node t 200)
    = Topo.As_rel.relationship t' (node t' 100) (node t' 200))

let test_as_rel_rejects_garbage () =
  let raises text =
    try
      ignore (Topo.As_rel.parse text);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty" true (raises "# nothing\n");
  Alcotest.(check bool) "bad rel code" true (raises "1|2|7\n");
  Alcotest.(check bool) "self rel" true (raises "5|5|0\n");
  Alcotest.(check bool) "duplicate" true (raises "1|2|-1\n2|1|0\n");
  Alcotest.(check bool) "malformed" true (raises "1,2,0\n")

(* --- properties --- *)

let sized_gen lo hi = QCheck.Gen.int_range lo hi

let prop_clique_degrees =
  QCheck.Test.make ~name:"clique: every node has degree n-1" ~count:30
    (QCheck.make (sized_gen 1 30)) (fun n ->
      let g = Topo.Generators.clique n in
      List.for_all (fun v -> Topo.Graph.degree g v = n - 1) (Topo.Graph.nodes g))

let prop_b_clique_connected =
  QCheck.Test.make ~name:"b_clique is connected and sized 2n" ~count:30
    (QCheck.make (sized_gen 2 20)) (fun n ->
      let g = Topo.Generators.b_clique n in
      Topo.Graph.n_nodes g = 2 * n && Topo.Graph.is_connected g)

let prop_internet_connected =
  QCheck.Test.make ~name:"internet generator always connects" ~count:30
    QCheck.(pair (make (sized_gen 3 120)) small_nat)
    (fun (n, seed) ->
      Topo.Graph.is_connected (Topo.Internet.generate ~seed n))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"edge-list roundtrip preserves the graph" ~count:30
    QCheck.(pair (make (sized_gen 3 60)) small_nat)
    (fun (n, seed) ->
      let g = Topo.Internet.generate ~seed n in
      let g' = Topo.Topo_io.of_edge_list (Topo.Topo_io.to_edge_list g) in
      Topo.Graph.edges g = Topo.Graph.edges g'
      && Topo.Graph.n_nodes g = Topo.Graph.n_nodes g')

let prop_degree_sum =
  QCheck.Test.make ~name:"handshake lemma: degree sum = 2m" ~count:30
    QCheck.(pair (make (sized_gen 3 80)) small_nat)
    (fun (n, seed) ->
      let g = Topo.Internet.generate ~seed n in
      let degree_sum =
        List.fold_left (fun acc v -> acc + Topo.Graph.degree g v) 0
          (Topo.Graph.nodes g)
      in
      degree_sum = 2 * Topo.Graph.n_edges g)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "topo"
    [
      ( "graph",
        [
          tc "basics" test_graph_basic;
          tc "rejects self-loop" test_graph_rejects_self_loop;
          tc "rejects duplicate edge" test_graph_rejects_duplicate;
          tc "rejects out-of-range" test_graph_rejects_out_of_range;
          tc "edges canonical order" test_graph_edges_sorted;
          tc "connectivity" test_graph_connectivity;
          tc "bfs distances" test_graph_bfs;
          tc "remove edge" test_graph_remove_edge;
          tc "min-degree nodes" test_graph_min_degree_nodes;
        ] );
      ( "bridges",
        [
          tc "small graphs" test_bridges_small;
          tc "200,000-node chain" test_bridges_long_chain;
          QCheck_alcotest.to_alcotest prop_bridges_match_reference;
        ] );
      ( "generators",
        [
          tc "clique" test_clique;
          tc "chain" test_chain;
          tc "ring" test_ring;
          tc "star" test_star;
          tc "b-clique structure (paper Fig 3b)" test_b_clique_structure;
          tc "b-clique backup path" test_b_clique_backup_path_exists;
          tc "balanced tree" test_balanced_tree;
          tc "grid" test_grid;
          tc "barbell" test_barbell;
          tc "size validation" test_generators_reject_bad_sizes;
        ] );
      ( "internet",
        [
          tc "paper sizes connect" test_internet_connected_and_sized;
          tc "deterministic per seed" test_internet_deterministic;
          tc "varies with seed" test_internet_seed_variation;
          tc "heavy-tailed degrees" test_internet_heavy_tail;
          tc "stub nodes are minimal degree" test_internet_stub_nodes;
          tc "rejects tiny n" test_internet_rejects_small;
          tc "internet-1000 matches the reference"
            test_internet_1000_matches_reference;
          QCheck_alcotest.to_alcotest prop_internet_matches_reference;
        ] );
      ( "graph-metrics",
        [
          tc "clique" test_metrics_clique;
          tc "chain" test_metrics_chain;
          tc "star mean path" test_metrics_star_mean_path;
          tc "rejects disconnected" test_metrics_rejects_disconnected;
          tc "internet substitution shape" test_metrics_internet_documented_shape;
        ] );
      ( "io",
        [
          tc "roundtrip" test_io_roundtrip;
          tc "comments and blanks" test_io_comments_and_blanks;
          tc "rejects garbage" test_io_rejects_garbage;
          tc "dot rendering" test_io_dot_contains_edges;
        ] );
      ( "random-graphs",
        [
          tc "waxman connected and deterministic"
            test_waxman_connected_and_deterministic;
          tc "waxman density grows with alpha"
            test_waxman_density_grows_with_alpha;
          tc "waxman validation" test_waxman_validation;
          tc "glp connected with heavy tail" test_glp_connected_heavy_tail;
          tc "glp m controls density" test_glp_m_controls_density;
          tc "glp validation" test_glp_validation;
          QCheck_alcotest.to_alcotest prop_random_graphs_connected;
        ] );
      ( "as-rel",
        [
          tc "parses the serial-1 format" test_as_rel_parses;
          tc "relationship views" test_as_rel_relationships;
          tc "roundtrip" test_as_rel_roundtrip;
          tc "rejects garbage" test_as_rel_rejects_garbage;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_clique_degrees;
            prop_b_clique_connected;
            prop_internet_connected;
            prop_io_roundtrip;
            prop_degree_sum;
          ] );
    ]

(* Random small graphs for the bridge and resolution properties, shared
   by test_topo and test_experiment: 1-14 nodes, each pair linked with
   one of five probabilities, so the draws run from disconnected
   forests to dense graphs with few or no bridges. *)

let gen =
  let open QCheck.Gen in
  int_range 1 14 >>= fun n ->
  oneofl [ 0.1; 0.2; 0.35; 0.5; 0.8 ] >>= fun density ->
  let pairs =
    List.concat_map
      (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1)))
      (List.init n Fun.id)
  in
  let pick e =
    float_bound_exclusive 1. >|= fun x -> if x < density then Some e else None
  in
  flatten_l (List.map pick pairs) >|= fun picked ->
  Topo.Graph.create ~n ~edges:(List.filter_map Fun.id picked)

let print g =
  Printf.sprintf "n=%d edges=[%s]" (Topo.Graph.n_nodes g)
    (String.concat "; "
       (List.map
          (fun (u, v) -> Printf.sprintf "(%d,%d)" u v)
          (Topo.Graph.edges g)))

let arbitrary = QCheck.make ~print gen

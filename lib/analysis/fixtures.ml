type instance = {
  label : string;
  graph : Topo.Graph.t;
  policy : Bgp.Policy.t;
  origin : int;
}

let gadget_graph () =
  Topo.Graph.create ~n:4
    ~edges:[ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ]

(* examples/policy_safety.ml's BAD GADGET: each spoke prefers the 2-hop
   path through its clockwise neighbor over its own direct path *)
let gadget_policy () =
  let clockwise = function 1 -> 2 | 2 -> 3 | 3 -> 1 | _ -> 0 in
  let rank ~self path =
    match Bgp.As_path.to_list path with
    | [ v; 0 ] when v = clockwise self -> 0
    | [ 0 ] -> 1
    | _ -> 2
  in
  let prefer ~self _ a _ b =
    let c = compare (rank ~self a) (rank ~self b) in
    if c <> 0 then c else Bgp.As_path.compare a b
  in
  { Bgp.Policy.shortest_path with prefer; name = "bad-gadget" }

let bad_gadget () =
  {
    label = "bad-gadget";
    graph = gadget_graph ();
    policy = gadget_policy ();
    origin = 0;
  }

let good_gadget () =
  {
    label = "good-gadget";
    graph = gadget_graph ();
    policy = Bgp.Policy.shortest_path;
    origin = 0;
  }

let all () = [ bad_gadget (); good_gadget () ]

let find label =
  match List.find_opt (fun i -> i.label = label) (all ()) with
  | Some i -> Ok i
  | None ->
      Error
        (Printf.sprintf "unknown fixture %S (known: %s)" label
           (String.concat ", " (List.map (fun i -> i.label) (all ()))))

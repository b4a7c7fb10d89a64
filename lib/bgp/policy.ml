type t = {
  name : string;
  prefer : self:int -> int -> As_path.t -> int -> As_path.t -> int;
  import_ok : self:int -> int -> As_path.t -> bool;
  export_ok : self:int -> to_peer:int -> learned_from:int option -> bool;
}

let shortest_path =
  {
    name = "shortest-path";
    prefer = (fun ~self:_ _ a _ b -> As_path.compare a b);
    import_ok = (fun ~self:_ _ _ -> true);
    export_ok = (fun ~self:_ ~to_peer:_ ~learned_from:_ -> true);
  }

type relationship = Customer | Peer_rel | Provider

let class_rank = function Customer -> 0 | Peer_rel -> 1 | Provider -> 2

let gao_rexford ~rel =
  let prefer ~self p a q b =
    let c = compare (class_rank (rel self p)) (class_rank (rel self q)) in
    if c <> 0 then c else As_path.compare a b
  in
  (* Valley-free export: own and customer-learned routes go to everyone;
     peer- and provider-learned routes go to customers only. *)
  let export_ok ~self ~to_peer ~learned_from =
    match learned_from with
    | None -> true
    | Some peer -> (
        match rel self peer with
        | Customer -> true
        | Peer_rel | Provider -> rel self to_peer = Customer)
  in
  {
    name = "gao-rexford";
    prefer;
    import_ok = (fun ~self:_ _ _ -> true);
    export_ok;
  }

let relationships_by_degree g a b =
  let da = Topo.Graph.degree g a and db = Topo.Graph.degree g b in
  if da = db then Peer_rel else if db > da then Provider else Customer

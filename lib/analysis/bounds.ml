type certainty = Certified | Heuristic

type violation = { what : string; bound : float; actual : float }

type t = {
  n_nodes : int;
  exploration_depth : int;
  depth_exact : bool;
  rank_max : float;
  paths_total : float;
  mrai_rounds : float;
  time_bound_s : float;
  time_certainty : certainty;
  updates_bound : float;
  epochs : int;
}

let certainty_name = function
  | Certified -> "certified"
  | Heuristic -> "heuristic"

(* sum_(k=0..m) m!/(m-k)! with m = n - 2, accumulated as falling
   factorials so nothing larger than the final sum is ever formed *)
let clique_rank_bound n =
  if n < 2 then invalid_arg "Bounds.clique_rank_bound: n < 2";
  let m = float_of_int (n - 2) in
  let total = ref 0. and term = ref 1. and k = ref 0. in
  while !k <= m && !total < infinity do
    total := !total +. !term;
    term := !term *. (m -. !k);
    k := !k +. 1.
  done;
  !total

let derive ~graph ~origin ~mrai ~params ?enumeration ?clique ?(epochs = 1)
    ?(certified_event = false) () =
  let n = Topo.Graph.n_nodes graph in
  if origin < 0 || origin >= n then
    invalid_arg "Bounds.derive: origin out of range";
  if not (mrai >= 0. && Float.is_finite mrai) then
    invalid_arg "Bounds.derive: mrai must be finite and >= 0";
  if epochs < 1 then invalid_arg "Bounds.derive: epochs < 1";
  (match clique with
  | Some k when k <> n || k < 2 ->
      invalid_arg "Bounds.derive: clique size does not match the graph"
  | _ -> ());
  let exploration_depth, depth_exact, rank_max, paths_total =
    match enumeration with
    | Some (e : Spvp.enumeration) ->
        let depth = ref 0 and rank = ref 0 in
        Array.iteri
          (fun v paths ->
            if v <> origin then rank := Stdlib.max !rank (List.length paths);
            List.iter
              (fun p -> depth := Stdlib.max !depth (List.length p - 1))
              paths)
          e.per_node;
        (!depth, true, float_of_int !rank, float_of_int e.total)
    | None -> (
        match clique with
        | Some k ->
            let r = clique_rank_bound k in
            (* every non-origin node also originates nothing; total =
               (n-1) nodes x r paths + the origin's own trivial path *)
            (k - 1, true, r, (float_of_int (k - 1) *. r) +. 1.)
        | None -> (Stdlib.max 0 (n - 1), false, infinity, infinity))
  in
  let mrai_rounds =
    (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
    if rank_max = infinity then infinity else rank_max +. 2.
  in
  let deg_max =
    List.fold_left
      (fun acc v -> Stdlib.max acc (Topo.Graph.degree graph v))
      0 (Topo.Graph.nodes graph)
  in
  let time_bound_s =
    (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
    if mrai_rounds = infinity then infinity
    else
      let per_epoch =
        (mrai_rounds *. (mrai +. (float_of_int deg_max *. params.Netcore.Params.proc_delay_max)))
        +. (float_of_int exploration_depth
           *. (params.Netcore.Params.link_delay +. params.Netcore.Params.proc_delay_max))
      in
      (float_of_int epochs *. per_epoch) +. mrai
  in
  let time_certainty =
    if certified_event && depth_exact && epochs = 1 && time_bound_s < infinity
    then Certified
    else Heuristic
  in
  let updates_bound =
    (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
    if mrai_rounds = infinity then infinity
    else
      float_of_int epochs
      *. (2. *. float_of_int (Topo.Graph.n_edges graph))
      *. 2. *. mrai_rounds
  in
  {
    n_nodes = n;
    exploration_depth;
    depth_exact;
    rank_max;
    paths_total;
    mrai_rounds;
    time_bound_s;
    time_certainty;
    updates_bound;
    epochs;
  }

let check t ~convergence_time =
  if t.time_certainty = Certified && convergence_time > t.time_bound_s then
    [
      {
        what = "convergence-time";
        bound = t.time_bound_s;
        actual = convergence_time;
      };
    ]
  else []

let pp_count fmt x =
  (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
  if x = infinity then Format.fprintf fmt "unbounded"
  else if x < 1e15 then Format.fprintf fmt "%.0f" x
  else Format.fprintf fmt "%.3g" x

let pp fmt t =
  Format.fprintf fmt
    "bounds: depth<=%d%s rank<=%a paths<=%a rounds<=%a@\n\
    \  time<=%s (%s) updates<=%a (heuristic) epochs=%d"
    t.exploration_depth
    (if t.depth_exact then "" else " (generic)")
    pp_count t.rank_max pp_count t.paths_total pp_count t.mrai_rounds
    (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
    (if t.time_bound_s = infinity then "unbounded"
     else Printf.sprintf "%.2fs" t.time_bound_s)
    (certainty_name t.time_certainty)
    pp_count t.updates_bound t.epochs

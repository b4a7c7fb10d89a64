type path = int list

type enumeration = { per_node : path list array; total : int }

type arc_kind = Transmission | Dispute

type wheel = { cycle : (path * arc_kind) list }

type certificate =
  | Acyclic_dispute_digraph of { paths : int; arcs : int }
  | Gao_rexford_conformant

type verdict = Safe of certificate | Unsafe of wheel | Unknown of string

type t = {
  verdict : verdict;
  enumeration : enumeration option;
  unreachable : int list;
}

(* The candidate a node ranks for a stored path [v :: tail]: the AS path
   it received is [tail], from peer [hd tail]. *)
let candidate_of ~table = function
  | _ :: (peer :: _ as tail) -> (peer, Bgp.As_path.of_list ~table tail)
  | _ -> invalid_arg "Spvp.candidate_of: origin path has no candidate"

let permitted_paths ~graph ~(policy : Bgp.Policy.t) ~origin ~max_paths =
  let n = Topo.Graph.n_nodes graph in
  if origin < 0 || origin >= n then
    invalid_arg "Spvp.permitted_paths: origin out of range";
  (* local arena: the enumeration re-interns shared suffixes constantly,
     and the analysis should not grow the domain's default table *)
  let table = Bgp.As_path.Table.create () in
  let per_node = Array.make n [] in
  per_node.(origin) <- [ [ origin ] ];
  let total = ref 1 in
  let q = Queue.create () in
  Queue.add [ origin ] q;
  let blown = ref false in
  while (not !blown) && not (Queue.is_empty q) do
    let p = Queue.pop q in
    let u = List.hd p in
    let learned_from =
      match p with _ :: next :: _ -> Some next | _ -> None
    in
    List.iter
      (fun v ->
        if (not !blown) && not (List.mem v p) then
          if policy.export_ok ~self:u ~to_peer:v ~learned_from then begin
            if policy.import_ok ~self:v u (Bgp.As_path.of_list ~table p)
            then begin
              let pv = v :: p in
              per_node.(v) <- pv :: per_node.(v);
              incr total;
              if !total > max_paths then blown := true else Queue.add pv q
            end
          end)
      (Topo.Graph.neighbors graph u)
  done;
  if !blown then
    Error
      (Printf.sprintf "path enumeration exceeded the %d-path budget" max_paths)
  else begin
    (* rank each node's permitted paths best-first *)
    Array.iteri
      (fun v ps ->
        if v <> origin then
          per_node.(v) <-
            List.sort
              (fun p1 p2 ->
                let q1, a = candidate_of ~table p1
                and q2, b = candidate_of ~table p2 in
                policy.prefer ~self:v q1 a q2 b)
              ps)
      per_node;
    Ok { per_node; total = !total }
  end

(* --- generic digraph cycle detection (iterative, witness-reporting) --- *)

(* Returns a cycle as a node list [v0; v1; ...; vk] with arcs
   v0 -> v1 -> ... -> vk -> v0, or None when the digraph is acyclic. *)
let find_cycle ~n ~succ =
  let color = Array.make n 0 (* 0 white, 1 gray, 2 black *) in
  let found = ref None in
  let gray = ref [] (* current DFS path, top first *) in
  let s = ref 0 in
  while !found = None && !s < n do
    if color.(!s) = 0 then begin
      let stack = Stack.create () in
      Stack.push (!s, ref (succ !s)) stack;
      color.(!s) <- 1;
      gray := [ !s ];
      while (not (Stack.is_empty stack)) && !found = None do
        let u, rest = Stack.top stack in
        match !rest with
        | [] ->
            ignore (Stack.pop stack);
            color.(u) <- 2;
            gray := List.tl !gray
        | w :: tl -> (
            rest := tl;
            if color.(w) = 1 then begin
              (* back edge: the gray path from [w] up to the top of the
                 stack, plus the arc back to [w], closes the cycle *)
              let rec take acc = function
                | x :: _ when x = w -> w :: acc
                | x :: r -> take (x :: acc) r
                | [] -> assert false
              in
              found := Some (take [] !gray)
            end
            else if color.(w) = 0 then begin
              color.(w) <- 1;
              gray := w :: !gray;
              Stack.push (w, ref (succ w)) stack
            end)
      done
    end;
    incr s
  done;
  !found

(* --- dispute digraph --- *)

(* the dispute digraph's arc budget *)
let max_arcs = 2_000_000

exception Arc_budget

(* Build the digraph and look for a cycle.  Dispute arcs are encoded
   through per-node virtual chain vertices to keep the arc count linear:
   for ranked paths [p0; ...; pk] at a node, virtual vertex [d_j]
   (1 <= j <= k) points at the transmission extensions ("children") of
   [p_j] and at [d_(j+1)], and each [p_(j-1)] points at [d_j] — so
   [p_i] reaches exactly the extensions of every strictly less
   preferred sibling, without materializing the quadratic arc set. *)
let dispute_digraph (enum : enumeration) =
  let tbl = Hashtbl.create 1024 in
  let acc = ref [] and n_real = ref 0 in
  Array.iter
    (List.iter (fun p ->
         Hashtbl.replace tbl p !n_real;
         acc := p :: !acc;
         incr n_real))
    enum.per_node;
  let paths = Array.of_list (List.rev !acc) in
  let n_real = !n_real in
  let n_virtual =
    Array.fold_left
      (fun a ps -> a + Stdlib.max 0 (List.length ps - 1))
      0 enum.per_node
  in
  let total = n_real + n_virtual in
  let succ = Array.make total [] in
  let children = Array.make n_real [] in
  let arcs = ref 0 in
  let add_arc u v =
    succ.(u) <- v :: succ.(u);
    incr arcs;
    if !arcs > max_arcs then raise Arc_budget
  in
  (* transmission arcs (and the child index they induce) *)
  Array.iteri
    (fun id p ->
      match p with
      | _ :: (_ :: _ as tail) ->
          let pid = Hashtbl.find tbl tail in
          add_arc pid id;
          children.(pid) <- id :: children.(pid)
      | _ -> ())
    paths;
  (* dispute arcs through the virtual chains *)
  let next_virtual = ref n_real in
  Array.iter
    (fun ps ->
      match List.map (Hashtbl.find tbl) ps with
      | [] | [ _ ] -> ()
      | ids ->
          let ids = Array.of_list ids in
          let k = Array.length ids - 1 in
          let virtuals = Array.init k (fun _ -> let v = !next_virtual in incr next_virtual; v) in
          for j = 1 to k do
            let d = virtuals.(j - 1) in
            add_arc ids.(j - 1) d;
            List.iter (add_arc d) children.(ids.(j));
            if j < k then add_arc d virtuals.(j)
          done)
    enum.per_node;
  (paths, n_real, total, succ, !arcs)

(* Collapse a raw digraph cycle (mixing path vertices and virtual chain
   vertices) into the permitted-path witness: a real-to-real arc is a
   transmission arc; a run of virtual vertices stands for one dispute
   arc onto the next real vertex. *)
let to_wheel paths n_real cycle =
  let rec rotate c guard =
    match c with
    | v :: rest when v >= n_real ->
        if guard = 0 then assert false else rotate (rest @ [ v ]) (guard - 1)
    | _ -> c
  in
  let c = rotate cycle (List.length cycle) in
  let rec skip_virtuals = function
    | w :: tl when w >= n_real -> skip_virtuals tl
    | l -> l
  in
  let rec go = function
    | [] -> []
    | v :: rest ->
        let kind =
          match rest with
          | w :: _ when w >= n_real -> Dispute
          | _ -> Transmission (* next real vertex, or wrap to the head *)
        in
        (paths.(v), kind) :: go (skip_virtuals rest)
  in
  { cycle = go c }

(* --- Gao-Rexford conformance --- *)

let check_gao_rexford ~graph ~rel =
  let exception Bad of string in
  try
    List.iter
      (fun (a, b) ->
        let consistent =
          match ((rel a b : Bgp.Policy.relationship), rel b a) with
          | Bgp.Policy.Customer, Bgp.Policy.Provider
          | Bgp.Policy.Provider, Bgp.Policy.Customer
          | Bgp.Policy.Peer_rel, Bgp.Policy.Peer_rel ->
              true
          | _ -> false
        in
        if not consistent then
          raise
            (Bad
               (Printf.sprintf
                  "inconsistent relationship views on edge (%d,%d)" a b)))
      (Topo.Graph.edges graph);
    (* the provider-to-customer digraph must be acyclic: an AS that is
       (transitively) its own provider breaks the Gao-Rexford argument *)
    let succ v =
      List.filter
        (fun w -> rel v w = Bgp.Policy.Customer)
        (Topo.Graph.neighbors graph v)
    in
    (match find_cycle ~n:(Topo.Graph.n_nodes graph) ~succ with
    | None -> ()
    | Some cycle ->
        raise
          (Bad
             (Printf.sprintf "customer-provider cycle: %s"
                (String.concat " -> "
                   (List.map string_of_int (cycle @ [ List.hd cycle ]))))));
    Ok ()
  with Bad msg -> Error msg

(* --- full analysis --- *)

let analyze ?(max_paths = 50_000) ?gr_rel ~graph ~policy ~origin () =
  let gr_safe =
    match gr_rel with
    | None -> false
    | Some rel -> check_gao_rexford ~graph ~rel = Ok ()
  in
  match permitted_paths ~graph ~policy ~origin ~max_paths with
  | Error reason ->
      let verdict =
        if gr_safe then Safe Gao_rexford_conformant else Unknown reason
      in
      { verdict; enumeration = None; unreachable = [] }
  | Ok enum ->
      let unreachable =
        List.filter
          (fun v -> enum.per_node.(v) = [])
          (Topo.Graph.nodes graph)
      in
      let verdict =
        match dispute_digraph enum with
        | exception Arc_budget ->
            if gr_safe then Safe Gao_rexford_conformant
            else
              Unknown
                (Printf.sprintf
                   "dispute digraph exceeded the %d-arc budget" max_arcs)
        | paths, n_real, total, succ, arcs -> (
            match find_cycle ~n:total ~succ:(fun u -> succ.(u)) with
            | None ->
                Safe (Acyclic_dispute_digraph { paths = n_real; arcs })
            | Some cycle ->
                if gr_safe then Safe Gao_rexford_conformant
                else Unsafe (to_wheel paths n_real cycle))
      in
      { verdict; enumeration = Some enum; unreachable }

(* --- rendering --- *)

let verdict_name = function
  | Safe _ -> "safe"
  | Unsafe _ -> "unsafe"
  | Unknown _ -> "unknown"

let pp_path fmt p =
  Format.fprintf fmt "(%s)" (String.concat " " (List.map string_of_int p))

let pp_wheel fmt { cycle } =
  match cycle with
  | [] -> Format.pp_print_string fmt "<empty>"
  | (first, _) :: _ ->
      List.iter
        (fun (p, k) ->
          Format.fprintf fmt "%a %s " pp_path p
            (match k with Transmission -> "=>" | Dispute -> "~>"))
        cycle;
      pp_path fmt first

let pp fmt t =
  (match t.verdict with
  | Safe (Acyclic_dispute_digraph { paths; arcs }) ->
      Format.fprintf fmt
        "safe: dispute digraph acyclic (%d permitted paths, %d arcs)" paths
        arcs
  | Safe Gao_rexford_conformant ->
      Format.fprintf fmt
        "safe: Gao-Rexford conformant (valley-free over an acyclic \
         customer-provider hierarchy)"
  | Unsafe w ->
      Format.fprintf fmt "unsafe: dispute cycle %a" pp_wheel w
  | Unknown reason -> Format.fprintf fmt "unknown: %s" reason);
  if t.unreachable <> [] then
    Format.fprintf fmt
      "@.note: %d node(s) have no permitted path to the origin: %s"
      (List.length t.unreachable)
      (String.concat ", " (List.map string_of_int t.unreachable))

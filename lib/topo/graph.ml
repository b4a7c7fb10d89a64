type t = { n : int; adj : int list array; m : int }

let norm u v = if u <= v then (u, v) else (v, u)

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  let adj = Array.make (Stdlib.max n 1) [] in
  let seen = Hashtbl.create (List.length edges) in
  let add (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg
        (Printf.sprintf "Graph.create: edge (%d,%d) outside 0..%d" u v (n - 1));
    if u = v then
      invalid_arg (Printf.sprintf "Graph.create: self-loop at %d" u);
    let key = norm u v in
    if Hashtbl.mem seen key then
      invalid_arg (Printf.sprintf "Graph.create: duplicate edge (%d,%d)" u v);
    Hashtbl.add seen key ();
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  in
  List.iter add edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { n; adj; m = List.length edges }

let n_nodes t = t.n

let n_edges t = t.m

let nodes t = List.init t.n Fun.id

let check_node t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Graph: node %d outside 0..%d" v (t.n - 1))

let neighbors t v =
  check_node t v;
  t.adj.(v)

let degree t v =
  check_node t v;
  List.length t.adj.(v)

let has_edge t u v =
  check_node t u;
  check_node t v;
  List.mem v t.adj.(u)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    (* adjacency lists are sorted ascending; prepend in reverse so the
       final list is sorted without a re-sort *)
    List.iter (fun v -> if u < v then acc := (u, v) :: !acc) (List.rev t.adj.(u))
  done;
  !acc

let bfs_distances t ~from =
  check_node t from;
  let dist = Array.make t.n max_int in
  dist.(from) <- 0;
  let q = Queue.create () in
  Queue.add from q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  dist

let reachable t ~from ?(blocked_nodes = []) ?(blocked_links = []) () =
  check_node t from;
  List.iter (check_node t) blocked_nodes;
  List.iter
    (fun (a, b) ->
      check_node t a;
      check_node t b)
    blocked_links;
  let node_blocked = Array.make t.n false in
  List.iter (fun v -> node_blocked.(v) <- true) blocked_nodes;
  let link_blocked = Hashtbl.create (List.length blocked_links) in
  List.iter (fun (a, b) -> Hashtbl.replace link_blocked (norm a b) ()) blocked_links;
  let seen = Array.make t.n false in
  if not node_blocked.(from) then begin
    seen.(from) <- true;
    let q = Queue.create () in
    Queue.add from q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if
            (not seen.(v))
            && (not node_blocked.(v))
            && not (Hashtbl.mem link_blocked (norm u v))
          then begin
            seen.(v) <- true;
            Queue.add v q
          end)
        t.adj.(u)
    done
  end;
  seen

let is_connected t =
  if t.n <= 1 then true
  else
    let dist = bfs_distances t ~from:0 in
    Array.for_all (fun d -> d < max_int) dist

(* Tarjan's low-link DFS, iterative so that a long chain cannot
   overflow the stack.  [rest.(u)] holds the neighbours of [u] still to
   explore; a tree edge (parent.(v), v) is a bridge iff nothing in v's
   subtree reaches above v, i.e. low.(v) > disc.(parent.(v)).  Simple
   graphs have no parallel edges, so skipping the parent vertex skips
   exactly the tree edge. *)
let bridges t =
  let n = t.n in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let parent = Array.make n (-1) and rest = Array.make n [] in
  let cut = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 and clock = ref 0 in
  let visit v p =
    disc.(v) <- !clock;
    low.(v) <- !clock;
    incr clock;
    parent.(v) <- p;
    rest.(v) <- t.adj.(v);
    stack.(!sp) <- v;
    incr sp
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then visit root (-1);
    while !sp > 0 do
      let u = stack.(!sp - 1) in
      match rest.(u) with
      | v :: tl ->
          rest.(u) <- tl;
          if disc.(v) < 0 then visit v u
          else if v <> parent.(u) then low.(u) <- Stdlib.min low.(u) disc.(v)
      | [] ->
          decr sp;
          let p = parent.(u) in
          if p >= 0 then begin
            low.(p) <- Stdlib.min low.(p) low.(u);
            cut.(u) <- low.(u) > disc.(p)
          end
    done
  done;
  (* [cut.(v)] marks the tree edge to v's parent; emit in [edges] order *)
  let is_bridge u v =
    (parent.(v) = u && cut.(v)) || (parent.(u) = v && cut.(u))
  in
  let acc = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun v -> if u < v && is_bridge u v then acc := (u, v) :: !acc)
      t.adj.(u)
  done;
  List.rev !acc

let remove_edge t u v =
  if not (has_edge t u v) then
    invalid_arg (Printf.sprintf "Graph.remove_edge: no edge (%d,%d)" u v);
  let key = norm u v in
  let kept = List.filter (fun e -> norm (fst e) (snd e) <> key) (edges t) in
  create ~n:t.n ~edges:kept

let min_degree_nodes t =
  if t.n = 0 then []
  else
    let dmin =
      List.fold_left
        (fun acc v -> Stdlib.min acc (degree t v))
        max_int (nodes t)
    in
    List.filter (fun v -> degree t v = dmin) (nodes t)

let pp fmt t =
  Format.fprintf fmt "graph(n=%d, m=%d)" t.n t.m

(** Undirected simple graphs over nodes [0 .. n-1].

    Nodes model Autonomous Systems; edges model inter-AS adjacencies
    (BGP sessions over physical links).  The structure is immutable
    after construction. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph on [n] nodes.  Self-loops and
    duplicate edges (in either orientation) are rejected.
    @raise Invalid_argument on [n < 0], an endpoint outside
    [0 .. n-1], a self-loop, or a duplicate edge. *)

val n_nodes : t -> int

val n_edges : t -> int

val nodes : t -> int list
(** [0; 1; ...; n-1]. *)

val edges : t -> (int * int) list
(** Each edge once, with the smaller endpoint first, sorted. *)

val has_edge : t -> int -> int -> bool

val neighbors : t -> int -> int list
(** Sorted ascending.  @raise Invalid_argument on an out-of-range node. *)

val degree : t -> int -> int

val is_connected : t -> bool
(** [true] for the empty and one-node graphs. *)

val reachable :
  t ->
  from:int ->
  ?blocked_nodes:int list ->
  ?blocked_links:(int * int) list ->
  unit ->
  bool array
(** Per-node reachability from [from] with the given nodes and links
    (either orientation) removed — the cut view the static scenario
    linter uses to predict partitions.  [from] itself is unreachable
    when blocked.  @raise Invalid_argument on out-of-range ids. *)

val bfs_distances : t -> from:int -> int array
(** Hop distances from [from]; unreachable nodes get [max_int]. *)

val bridges : t -> (int * int) list
(** The edges whose removal disconnects their endpoints, each once with
    the smaller endpoint first, sorted like {!edges}.  In a connected
    graph, removing an edge keeps it connected iff the edge is not a
    bridge.  One iterative DFS, O(n + m), so any depth is safe. *)

val remove_edge : t -> int -> int -> t
(** A copy without the given edge.  @raise Invalid_argument if the edge
    is absent. *)

val min_degree_nodes : t -> int list
(** All nodes attaining the minimum degree, ascending. *)

val pp : Format.formatter -> t -> unit

(** Static policy-safety analysis: the SPVP dispute digraph.

    Griffin, Shepherd and Wilfong's Stable Paths Problem framework
    ("The Stable Paths Problem and Interdomain Routing", ToN 2002)
    reduces BGP divergence to a static property of the instance: if no
    {e dispute wheel} — a cycle of nodes each preferring a path through
    the next over its own direct path — can be embedded in the
    (topology, policy, destination) triple, then SPVP (and hence the
    simulated BGP decision process) converges from every initial state
    and under every message ordering.

    This module enumerates the {e permitted paths} of the instance (the
    simple paths to the origin that survive the policy's import and
    export filters) and builds a dispute digraph over them with two arc
    families:

    - {e transmission} arcs [p -> (v u)p]: adopting [p] at [u] makes
      its one-hop extension available at neighbor [v];
    - {e dispute} arcs [p -> (v u)r], for [p, r] permitted at [u] with
      [p] strictly preferred: adopting [p] at [u] retracts the
      less-preferred [r] and with it [r]'s extensions at [u]'s
      neighbors.

    Every dispute wheel with spokes [Q_i] and rims [R_i] closes a cycle
    in this digraph (the rim preference yields a dispute arc onto the
    first rim hop of the previous spoke's extension; transmission arcs
    walk the rest of the rim), so an {b acyclic} digraph certifies the
    instance dispute-wheel-free and therefore {b safe}.  A cycle is
    reported as an [Unsafe] witness: a circular chain of permitted
    paths whose adoptions retract each other — the static shadow of a
    potential persistent oscillation.  (The converse does not hold: a
    cycle does not prove divergence, so [Unsafe] means "not certified,
    witness attached".)

    A separate Gao-Rexford conformance check certifies instances whose
    policy is {!Bgp.Policy.gao_rexford} over an acyclic customer–
    provider hierarchy (Gao & Rexford 2001), independent of path
    enumeration — the valley-free economic structure guarantees
    convergence even when the coarse digraph has cycles or the path
    sets are too large to enumerate. *)

type path = int list
(** A permitted path as the node sequence from its owner down to the
    origin, owner first ([[v; ...; origin]]); the origin's own path is
    [[origin]].  The AS path the owner received is the tail. *)

type enumeration = {
  per_node : path list array;
      (** permitted paths of each node, ranked best-first under the
          policy's [prefer]; the origin holds just [[origin]] *)
  total : int;  (** paths across all nodes *)
}

val permitted_paths :
  graph:Topo.Graph.t ->
  policy:Bgp.Policy.t ->
  origin:int ->
  max_paths:int ->
  (enumeration, string) result
(** Breadth-first closure from the origin: a path extends over an edge
    when the owner's export filter and the neighbor's import filter
    both pass and the neighbor is not already on the path.  [Error]
    when more than [max_paths] paths exist (the instance is too large
    to certify by enumeration).
    @raise Invalid_argument on an out-of-range origin. *)

type arc_kind =
  | Transmission  (** one-hop extension of the previous path *)
  | Dispute
      (** the previous path's adoption retracts the sub-path this one
          extends *)

type wheel = { cycle : (path * arc_kind) list }
(** A witness cycle in the dispute digraph: each element carries the
    arc kind leading to the {e next} element (cyclically). *)

type certificate =
  | Acyclic_dispute_digraph of { paths : int; arcs : int }
      (** no dispute wheel embeds: safe by GSW *)
  | Gao_rexford_conformant
      (** valley-free policy over an acyclic customer-provider
          hierarchy: safe by Gao-Rexford *)

type verdict =
  | Safe of certificate
  | Unsafe of wheel
  | Unknown of string  (** analysis budget exhausted; reason attached *)

type t = {
  verdict : verdict;
  enumeration : enumeration option;
      (** [Some] whenever path enumeration completed, even under an
          [Unsafe] verdict — the bound derivations reuse it *)
  unreachable : int list;
      (** nodes with no permitted path to the origin: statically
          destination-unreachable under this policy *)
}

val check_gao_rexford :
  graph:Topo.Graph.t ->
  rel:(int -> int -> Bgp.Policy.relationship) ->
  (unit, string) result
(** [Ok] when [rel] is consistent (mirror views agree on every edge)
    and the provider-to-customer digraph is acyclic; [Error] describes
    the offending edge or customer-provider cycle. *)

val analyze :
  ?max_paths:int ->
  ?gr_rel:(int -> int -> Bgp.Policy.relationship) ->
  graph:Topo.Graph.t ->
  policy:Bgp.Policy.t ->
  origin:int ->
  unit ->
  t
(** Full safety analysis.  [max_paths] defaults to 50 000; a dispute
    digraph of more than 2 000 000 arcs is reported [Unknown].
    [gr_rel], when given, asserts that [policy] is
    {!Bgp.Policy.gao_rexford} over that relationship oracle, enabling
    the Gao-Rexford certificate as a fallback when enumeration blows
    the budget or the coarse digraph is cyclic.
    @raise Invalid_argument on an out-of-range origin. *)

val verdict_name : verdict -> string
(** ["safe"], ["unsafe"] or ["unknown"]. *)

val pp_path : Format.formatter -> path -> unit
(** Paper style: [(3 1 0)]. *)

val pp_wheel : Format.formatter -> wheel -> unit

val pp : Format.formatter -> t -> unit

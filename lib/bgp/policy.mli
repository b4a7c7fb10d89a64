(** Route selection and export policies.

    The decision process ranks candidate routes with [prefer] (a strict
    total order on distinct candidates), filters inbound routes with
    [import_ok] and outbound announcements with [export_ok].

    {!shortest_path} is the paper's policy: prefer shorter AS paths,
    break ties toward the lexicographically smallest path — whose first
    element is the advertising neighbor, so this is exactly the paper's
    "smaller node ID is used for tie-breaking".

    {!gao_rexford} implements customer/peer/provider routing with
    valley-free export, provided as an extension beyond the paper (see
    DESIGN.md §7). *)

(** A candidate is a usable Adj-RIB-In entry: a path as received from
    a peer (its head is that peer).  The decision process passes the
    peer and the path as separate arguments, so scanning the RIB builds
    no candidate value. *)
type t = {
  name : string;
  prefer : self:int -> int -> As_path.t -> int -> As_path.t -> int;
      (** [prefer ~self p a q b] is negative when path [a] from peer [p]
          is preferred over path [b] from peer [q].  Must be a total
          order on candidates with distinct paths. *)
  import_ok : self:int -> int -> As_path.t -> bool;
      (** [import_ok ~self peer path]: additional import filtering of
          [path] from [peer].  Loop rejection (own AS in the path) is
          enforced by the speaker itself, not here. *)
  export_ok : self:int -> to_peer:int -> learned_from:int option -> bool;
      (** Whether the best route, learned from [learned_from] ([None]
          for a locally originated route), may be announced to
          [to_peer]. *)
}

val shortest_path : t

type relationship =
  | Customer  (** the other AS is my customer *)
  | Peer_rel  (** settlement-free peer *)
  | Provider  (** the other AS is my provider *)

val gao_rexford : rel:(int -> int -> relationship) -> t
(** [gao_rexford ~rel] where [rel a b] is [b]'s role from [a]'s point of
    view.  Preference: customer routes over peer routes over provider
    routes, then shortest path, then lowest-ID tie-break.  Export
    (valley-free): routes learned from a customer (or originated
    locally) go to everyone; routes learned from a peer or provider go
    to customers only. *)

val relationships_by_degree : Topo.Graph.t -> int -> int -> relationship
(** Degree heuristic for synthetic topologies: the higher-degree
    endpoint of an edge is the provider; equal degrees make peers.
    Suitable as the [rel] argument of {!gao_rexford}. *)

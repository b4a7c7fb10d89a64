(** Serialization of topologies.

    The edge-list format is one [u v] pair per line, preceded by a
    header line [n <nodes>].  Lines starting with [#] and blank lines
    are ignored.  This lets users run the harness on their own AS
    graphs (e.g. graphs extracted from Route Views tables, as the paper
    did). *)

val to_edge_list : Graph.t -> string

val of_edge_list : string -> Graph.t
(** @raise Invalid_argument on malformed input (missing header,
    unparsable line, fewer than [n - 1] edge lines — too few for a
    connected graph — or edge constraints violated by {!Graph.create}).
    The node count is checked before anything of size [n] is
    allocated. *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz rendering, for inspecting generated topologies. *)

(** The typedtree analysis pass: loads [.cmt] files (produced by
    [dune build \@check]) and evaluates the {!Rule} set against the
    typer's resolved view of each module.  See DESIGN.md §16 for the
    rule catalog and the documented approximations. *)

val analyze_structure :
  unit_name:string ->
  source_file:string ->
  worker_reachable:bool ->
  Typedtree.structure ->
  Finding.t list
(** Run every rule over one typedtree.  [unit_name] is the compilation
    unit (e.g. ["Bgp__Speaker"]) — it qualifies local [t] types for
    D002 and exempts [Dessim.Rng] from D003.  [worker_reachable]
    arms R001.  Findings are sorted and de-duplicated. *)

val analyze_cmt :
  ?worker_reachable:bool -> string -> (string * Finding.t list, string) result
(** Read a [.cmt] and analyze its implementation; returns the unit
    name and findings.  Interfaces and packed cmts yield no findings.
    [worker_reachable] defaults to [true] (single-file mode assumes
    the worst). *)

val imports_of_cmt : string -> (string * string list, string) result
(** Unit name and direct compilation-unit imports, for the R001
    reachability graph. *)

val worker_reachable_set :
  imports:(string * string list) list ->
  roots:string list ->
  Set.Make(String).t
(** Units reachable from parallel worker code: seeds are every unit
    whose normalized name is a root, or that directly imports one
    (callers of [Parallel]/[Sweep] enqueue closures of their own
    code), closed transitively over imports. *)

val default_roots : string list
(** [["Parallel"; "Sweep"]]. *)

val norm_unit_last : string -> string
(** ["Bgp__As_path"] → ["As_path"]. *)

val tree_cmts : string -> string list
(** Every [.cmt] under [ROOT/lib] and [ROOT/bin], in a fixed order:
    the cmt tree of a build directory such as [_build/default]. *)

val analyze_tree : string list -> Finding.t list * string list
(** Analyze [cmts] as one tree, R001 armed on the units
    {!worker_reachable_set} reaches over their imports from
    {!default_roots}.  Returns the findings and the cmts that could
    not be read. *)

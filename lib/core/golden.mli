(** Golden-trace fixtures: canonical seeded runs with committed trace
    digests, the repository's behavioral-drift oracle.

    Regeneration (after an intentional behavior change):
    {[ dune exec bin/bgpsim_cli.exe -- golden > test/golden_digests.expected ]} *)

type fixture = { name : string; spec : Experiment.spec }

val clique5_tdown : fixture
(** Clique 5, T_down, seed 1 — also the CLI acceptance scenario. *)

val bclique5_tlong : fixture
(** B-Clique 5 (10 nodes), canonical core-link T_long. *)

val chain6_withdraw : fixture
(** 6-node chain, origin 0 withdraws (T_down). *)

val fixtures : fixture list

val canonical : fixture
(** The run whose JSONL trace CI uploads as an artifact
    (= {!clique5_tdown}). *)

val find : string -> fixture option

val events : fixture -> Obs.Event.t list
(** Run the fixture with a memory sink and return its trace. *)

val digest : fixture -> string
(** Hex md5 of the fixture's JSONL trace — equals the digest of the
    file written by [bgpsim_cli run --trace] on the same scenario. *)

val digest_line : fixture -> string
(** ["<name> <digest>"] — the fixture-file line format. *)

type mesh_fixture = {
  mesh_name : string;
  graph : Topo.Graph.t;
  victim : int;  (** index of the withdrawn origin (every node originates) *)
  params : Netcore.Params.t;
  config : Bgp.Config.t;
  churn : Bgp.Mesh_sim.churn option;
}
(** A full-mesh multi-prefix fixture: every node of [graph] originating
    its own prefix, [victim]'s prefix withdrawn, seed 1, under [params]
    and [config], with the optional background [churn].  Not an
    {!Experiment.spec} (those are single-prefix), so mesh fixtures are
    listed in {!mesh_fixtures} instead of {!fixtures}; {!traces} names
    both. *)

val mesh_fixtures : mesh_fixture list
(** On clique 5 with victim 0, all at MRAI 30 s: ["clique5-mesh"]
    (default configuration), ["clique5-mesh-gf"] (Ghost Flushing),
    ["clique5-mesh-wrate-fifo"] (WRATE with the [Fifo] rate limiter),
    and ["clique5-mesh-zero-proc"] and ["clique5-mesh-gf-zero-proc"]
    (default and Ghost Flushing with the processing delay fixed at 0,
    so every completion ties with its arrival and only sequence
    numbers order the router queues).  Then
    ["internet29-mesh-churn"]: [Topo.Internet.generate ~seed:1 29],
    the first min-degree node withdrawn while the first 5 other nodes
    flap for 4 cycles of 60 s. *)

val traces : (string * (unit -> Obs.Event.t list)) list
(** Every named trace in fixture-file order: the {!fixtures}, then the
    {!mesh_fixtures}, each with the run that returns its events (a full
    mesh trace is per-prefix tagged). *)

val digest_lines : unit -> string list
(** ["<name> <digest>"] for every one of {!traces}, in order, where the
    digest is the hex md5 of the trace's JSONL. *)

val parse_expected : string -> (string * string) list
(** Parse fixture-file text (["<name> <digest>"] lines; blanks and
    [#] comments ignored). *)

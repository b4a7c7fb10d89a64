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

type mesh_fixture = { mesh_name : string; config : Bgp.Config.t }
(** A full-mesh multi-prefix fixture: clique 5, every node originating
    its own prefix, node 0's prefix withdrawn, seed 1, under [config].
    Not an {!Experiment.spec} (those are single-prefix), so mesh
    fixtures are listed in {!mesh_fixtures} instead of {!fixtures}. *)

val mesh_fixtures : mesh_fixture list
(** ["clique5-mesh"] (default configuration), ["clique5-mesh-gf"]
    (Ghost Flushing) and ["clique5-mesh-wrate-fifo"] (WRATE with the
    [Fifo] rate limiter), all at MRAI 30 s. *)

val mesh_events : mesh_fixture -> Obs.Event.t list
(** Run a full-mesh fixture with a memory sink and return its
    per-prefix-tagged trace. *)

val mesh_digest : mesh_fixture -> string
(** Hex md5 of a full-mesh fixture's JSONL trace. *)

val mesh_digest_line : mesh_fixture -> string
(** ["<mesh_name> <digest>"]. *)

val digest_lines : unit -> string list
(** All {!fixtures} lines followed by the {!mesh_fixtures} lines. *)

val parse_expected : string -> (string * string) list
(** Parse fixture-file text (["<name> <digest>"] lines; blanks and
    [#] comments ignored). *)

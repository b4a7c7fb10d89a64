(** Run a batch of independent thunks on several domains.

    Results are gathered in submission order, so a parallel batch is
    bit-identical to its sequential counterpart as long as each thunk
    owns its state (every {!Experiment.run} builds its own engine and
    seeded RNG streams, so this holds by construction; DESIGN.md §9).

    Exceptions are isolated per thunk: one failing run surfaces as its
    own [Error] without poisoning the batch, which is what
    {!Sweep.over_seeds_robust} needs to keep its semantics under
    parallelism. *)

val run : jobs:int -> (unit -> 'a) list -> ('a, exn) result list
(** [run ~jobs thunks] runs every thunk on [min jobs n] domains, the
    calling one included ([n] thunks): it starts [min jobs n - 1]
    domains, which take thunks from one shared counter with the
    caller, and joins them before it returns.  The outcomes come back
    in submission order.  With [jobs <= 1], or a single thunk, the
    thunks run in order in the calling domain and no domain starts.
    @raise Invalid_argument if [jobs < 0]. *)

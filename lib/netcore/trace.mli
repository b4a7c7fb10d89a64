(** Run trace: what a routing simulation leaves for the measurement
    stages — its FIB history, which the forwarding replay and the loop
    scanner read.

    Messages and link transitions are not kept here: they are the
    [Update_sent], [Update_recv] and [Link_state] events of the run's
    {!Obs.Bus.t}, and the convergence instant is counted through the
    network's send hook as the run goes. *)

type t

val create : n:int -> t

val fib : t -> Fib_history.t

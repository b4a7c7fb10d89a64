(** BGP protocol configuration.

    The flags mirror the paper's setup: the MRAI timer is applied per
    (destination, neighbor) with a random jitter; withdrawals bypass it
    (RFC 1771) unless WRATE is on; each enhancement is an independent
    flag so ablations can combine them, while {!of_enhancement} yields
    the paper's one-at-a-time configurations. *)

type t = {
  mrai : float;  (** base MRAI value M in seconds; paper default 30 *)
  mrai_jitter_min : float;
      (** each timer interval is drawn uniformly from
          [\[mrai_jitter_min * mrai, mrai\]]; default 0.75 (RFC-style).
          Set to [1.] for a jitterless timer. *)
  wrate : bool;  (** apply MRAI to withdrawals *)
  ssld : bool;  (** sender-side loop detection *)
  assertion : bool;  (** assertion purge of inconsistent RIB-In entries *)
  ghost_flushing : bool;  (** flush-withdrawal on delayed worse paths *)
  rate_limiter : Mrai.mode;
      (** how pending updates behind the MRAI timer are kept:
          [Collapse] (default; latest state wins) or [Fifo] (stale
          intermediate states still transmitted — an ablation of
          implementation-dependent behaviour, see EXPERIMENTS.md) *)
  damping : Damping.params option;
      (** RFC 2439 route-flap damping at every speaker ([None] =
          disabled, the paper's setting; extension, see {!Damping}) *)
  policy : Policy.t;
}

val default : t
(** Standard BGP, MRAI 30 s with 0.75–1.0 jitter, shortest-path policy. *)

val of_enhancement : ?mrai:float -> Enhancement.t -> t
(** The paper's per-enhancement configuration (exactly one mechanism
    active), at the given MRAI (default 30 s). *)

val validate : t -> unit
(** @raise Invalid_argument on an [mrai] that is not finite and >= 0,
    or a jitter factor outside (0, 1] (NaN included). *)

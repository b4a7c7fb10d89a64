(** BGP UPDATE messages, reduced to what the study needs: a path
    announcement or an explicit withdrawal, per prefix.  The sender is
    implicit in the session the message travels over. *)

type t =
  | Announce of { prefix : Prefix.t; path : As_path.t }
  | Withdraw of { prefix : Prefix.t }

val prefix : t -> Prefix.t

val pp : Format.formatter -> t -> unit

(** Classification of what triggered each transient loop.

    A loop is born when its trigger node repoints its FIB; that
    repointing is the decision taken right after the node processed
    some routing message, or reacted to a local session event.
    Correlating loop births with the run's [Update_recv] events (a
    message finishing its processing at a node) separates:

    - withdrawal-triggered loops — the node lost its route and fell
      back to a stale path (the paper's Figure 1 mechanism);
    - announcement-triggered loops — a (possibly implicit-withdraw)
      update made the node re-decide onto a stale path;
    - session-triggered loops — the node reacted to its own link
      failing, with no message involved ([T_long] at the endpoints).

    This refines the paper's aggregate view, following its announced
    next step of studying individual loops. *)

type cause = Withdrawal_triggered | Announcement_triggered | Session_triggered

val cause_name : cause -> string

val classify :
  events:Obs.Event.t list -> Scanner.report -> (Scanner.loop * cause) list
(** One entry per loop, in the report's order.  [events] is the run's
    event stream in emit order; only its [Update_recv] events are read.
    A loop's cause is the message its trigger node finished processing
    at the loop's birth instant (the later one when several did); with
    none, the loop is session-triggered. *)

type breakdown = {
  withdrawal_triggered : int;
  announcement_triggered : int;
  session_triggered : int;
}

val breakdown : (Scanner.loop * cause) list -> breakdown

val pp_breakdown : Format.formatter -> breakdown -> unit

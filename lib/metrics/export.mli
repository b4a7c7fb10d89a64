(** CSV export of run data, for offline plotting of the figures
    (gnuplot/matplotlib) and for inspecting traces outside OCaml.

    All functions return the CSV text (header line included, [\n] line
    endings); callers choose where to write it. *)

val fib_changes_csv : Netcore.Fib_history.t -> from:float -> string
(** Columns: [time,node,next_hop] ([next_hop] empty for "no route"). *)

val sends_csv : Obs.Event.t list -> from:float -> string
(** The [Update_sent] events with [time >= from], in emit order; other
    events are skipped.  Columns: [time,src,dst,kind] ([kind] is
    [announce] or [withdraw]). *)

val loops_csv : Loopscan.Scanner.report -> until:float -> string
(** Columns: [birth,death,duration,size,trigger,members] ([death] empty
    while alive; [members] separated by [;]). *)

val series_csv :
  x_label:string ->
  (float * Run_metrics.t) list ->
  string
(** One row per sweep point with the headline metric columns — the
    data behind each bench figure. *)

(** The paper's evaluation, Figures 4–9, defined once.  Each data series
    holds its x values (network sizes or MRAI values), the spec of a
    point, its seeds and its CSV file name.  Every series averages seeds
    1–3, except Internet [T_long] (Figure 9(c)/(d)), which averages 1–6.

    The series form four groups by the runs they share: ["fig4"]
    (Figures 4 and 6, alias ["fig6"]), ["fig5"] (Figures 5 and 7, alias
    ["fig7"]), ["fig8"] and ["fig9"]. *)

val names : string list
(** The group names and their aliases, sorted: ["fig4"] to ["fig9"]. *)

val run : jobs:int -> ?dir:string -> string list -> unit
(** [run ~jobs names] runs each group named in [names] (every group when
    [names] is empty) once, in figure order, each series on [jobs]
    domains ({!Sweep.series}), and prints its tables on standard
    output.  With [dir], it also writes each of
    the group's series as {!Metrics.Export.series_csv} into [dir]
    (created if absent), one ["wrote PATH"] line per file.
    @raise Invalid_argument on a name not in {!names}.
    @raise Sys_error when [dir] or a file in it cannot be written. *)

(* The paper's evaluation, Figures 4-9 (the paper has no tables), as one
   grid.  Figures 4 and 6 are two views (durations vs exhaustions) of the
   same runs, as are Figures 5 and 7, so a group runs each of its series
   once and prints every view of them; the CSVs carry all the metric
   columns, so one file serves both views of a series. *)

type series = {
  csv : string;
  x_label : string;
  xs : float list;
  seeds : int list;
  make : float -> Experiment.spec;
}

let seeds = [ 1; 2; 3 ]

let vs_size ~csv ?(x_label = "size") ?(seeds = seeds)
    ?(event = Experiment.Tdown) ?(enhancement = Bgp.Enhancement.Standard)
    topology sizes =
  let make x =
    let spec = Experiment.default_spec (topology (int_of_float x)) in
    { spec with event; enhancement }
  in
  { csv; x_label; xs = List.map float_of_int sizes; seeds; make }

let vs_mrai ~csv ?(event = Experiment.Tdown) topology =
  let make mrai = { (Experiment.default_spec topology) with event; mrai } in
  { csv; x_label = "mrai"; xs = [ 10.; 20.; 30.; 40.; 50.; 60. ]; seeds; make }

(* Figures 8 and 9: one series per enhancement, in [Enhancement.all]
   order, so [Standard] comes first *)
let per_enhancement ~csv ?x_label ?seeds ?event topology sizes =
  List.map
    (fun enhancement ->
      vs_size
        ~csv:(Printf.sprintf "%s_%s.csv" csv (Bgp.Enhancement.name enhancement))
        ?x_label ?seeds ?event ~enhancement topology sizes)
    Bgp.Enhancement.all

let clique n = Experiment.Clique n

let b_clique n = Experiment.B_clique n

let internet n = Experiment.Internet n

let clique_sizes = [ 5; 10; 15; 20; 25; 30 ]

let b_clique_sizes = [ 5; 10; 15 ]

let internet_sizes = [ 29; 48; 75; 110 ]

let clique_tdown =
  vs_size ~csv:"fig4a_fig6a_clique_tdown_vs_size.csv" clique clique_sizes

let b_clique_tlong =
  vs_size ~csv:"fig4b_fig6b_bclique_tlong_vs_size.csv" ~x_label:"n"
    ~event:Experiment.Tlong b_clique b_clique_sizes

let internet_tdown =
  vs_size ~csv:"fig4c_fig6c_internet_tdown_vs_size.csv" internet
    internet_sizes

let clique15_mrai =
  vs_mrai ~csv:"fig5a_fig7a_clique15_tdown_vs_mrai.csv" (clique 15)

let b_clique10_mrai =
  vs_mrai ~csv:"fig5b_fig7b_bclique10_tlong_vs_mrai.csv"
    ~event:Experiment.Tlong (b_clique 10)

let enh_clique_tdown =
  per_enhancement ~csv:"fig8ab_clique_tdown" clique clique_sizes

let enh_internet_tdown =
  per_enhancement ~csv:"fig8cd_internet_tdown" internet internet_sizes

let enh_b_clique_tlong =
  per_enhancement ~csv:"fig9ab_bclique_tlong" ~x_label:"n"
    ~event:Experiment.Tlong b_clique b_clique_sizes

(* Internet T_long loops are rare events, so they average six seeds *)
let enh_internet_tlong =
  per_enhancement ~csv:"fig9cd_internet_tlong" ~seeds:[ 1; 2; 3; 4; 5; 6 ]
    ~event:Experiment.Tlong internet internet_sizes

(* --- tables; [data] gives a series' averaged points --- *)

let say fmt = Format.printf (fmt ^^ "@.")

let table ~title ~header cells points =
  print_string
    (Report.table ~title ~header
       ~rows:(List.map (fun (x, m) -> Printf.sprintf "%g" x :: cells m) points))

(* One view of a series: its table, a least-squares line per [fits]
   entry, then a blank line. *)
let view data header cells ?(fits = []) title s =
  let points = data s in
  table ~title ~header:(s.x_label :: header) cells points;
  List.iter
    (fun (label, y) ->
      say "  fit: %s %a" label Stats.Linear_fit.pp
        (Sweep.linearity points ~x:Fun.id ~y))
    fits;
  say ""

let durations data =
  view data [ "conv(s)"; "loop-dur(s)" ] (fun (m : Metrics.Run_metrics.t) ->
      [
        Report.float_cell m.convergence_time;
        Report.float_cell m.overall_looping_duration;
      ])

let exhaustions data =
  view data [ "ttl-exh"; "ratio" ] (fun (m : Metrics.Run_metrics.t) ->
      [ string_of_int m.ttl_exhaustions; Report.ratio_cell m.looping_ratio ])

let conv (m : Metrics.Run_metrics.t) = m.convergence_time

let fig4_6 data =
  say "=== Figures 4 & 6: looping vs network size ===@.";
  durations data "Fig 4(a): T_down on Clique" clique_tdown;
  durations data "Fig 4(b): T_long on B-Clique (2n nodes)" b_clique_tlong;
  durations data "Fig 4(c): T_down on Internet-derived" internet_tdown;
  say
    "Observation 1 check: in T_down the looping duration should sit a few@,\
     seconds under the convergence time; in T_long the gap is ~1 MRAI.@.";
  exhaustions data "Fig 6(a): TTL exhaustions & ratio, T_down Clique"
    clique_tdown;
  exhaustions data "Fig 6(b): TTL exhaustions & ratio, T_long B-Clique"
    b_clique_tlong;
  exhaustions data "Fig 6(c): TTL exhaustions & ratio, T_down Internet-derived"
    internet_tdown;
  say
    "Observation 2 check: ratio >65%% for T_down cliques of size >=15, >35%%@,\
     for T_long b-cliques of size >=15.@."

let fig5_7 data =
  say "=== Figures 5 & 7: looping vs MRAI value ===@.";
  durations data "Fig 5(a): T_down on Clique-15 vs MRAI" clique15_mrai
    ~fits:
      [
        ("convergence ~", conv);
        ( "looping dur ~",
          fun m -> m.Metrics.Run_metrics.overall_looping_duration );
      ];
  durations data "Fig 5(b): T_long on B-Clique-10 vs MRAI" b_clique10_mrai
    ~fits:[ ("convergence ~", conv) ];
  exhaustions data "Fig 7(a): TTL exhaustions & ratio vs MRAI (Clique-15)"
    clique15_mrai
    ~fits:
      [
        ( "exhaustions ~",
          fun m -> float_of_int m.Metrics.Run_metrics.ttl_exhaustions );
      ];
  exhaustions data "Fig 7(b): TTL exhaustions & ratio vs MRAI (B-Clique-10)"
    b_clique10_mrai;
  say
    "Observation 1/2 checks: convergence, looping duration and exhaustion@,\
     counts all linear in the MRAI (R^2 near 1); the looping ratio column@,\
     stays flat.@."

(* Figure [fig]'s panels [a] and [b] over [per_enh]: rows by x value,
   one column per enhancement, TTL exhaustions normalized by standard
   BGP's, then convergence times. *)
let enhancement_tables data fig (a, b) scope per_enh =
  let { x_label; xs; _ } = List.hd per_enh in
  let columns = List.map (fun s -> List.map snd (data s)) per_enh in
  let points =
    List.mapi (fun i x -> (x, List.map (fun col -> List.nth col i) columns)) xs
  in
  let header = x_label :: List.map Bgp.Enhancement.name Bgp.Enhancement.all in
  let panel p what cells =
    let title = Printf.sprintf "Fig %d(%c): %s (%s)" fig p what scope in
    table ~title ~header cells points;
    say ""
  in
  panel a "TTL exhaustions normalized by standard BGP" (fun ms ->
      let std = Stdlib.max (List.hd ms).Metrics.Run_metrics.ttl_exhaustions 1 in
      List.map
        (fun (m : Metrics.Run_metrics.t) ->
          Printf.sprintf "%.3f"
            (float_of_int m.ttl_exhaustions /. float_of_int std))
        ms);
  panel b "convergence time in seconds"
    (List.map (fun m -> Report.float_cell (conv m)))

let fig8 data =
  say "=== Figure 8: T_down convergence enhancements ===@.";
  enhancement_tables data 8 ('a', 'b') "Clique, T_down" enh_clique_tdown;
  enhancement_tables data 8 ('c', 'd') "Internet, T_down" enh_internet_tdown;
  say
    "Observation 3 checks: Assertion ~0 on cliques but weaker on Internet@,\
     topologies; Ghost Flushing <=0.2 normalized everywhere; SSLD a mild@,\
     <1 factor; WRATE near or above 1.@."

let fig9 data =
  say "=== Figure 9: T_long convergence enhancements ===@.";
  enhancement_tables data 9 ('a', 'b') "B-Clique, T_long" enh_b_clique_tlong;
  enhancement_tables data 9 ('c', 'd') "Internet, T_long" enh_internet_tlong

(* --- groups: names, the series they run, their tables --- *)

let groups =
  [
    ( [ "fig4"; "fig6" ],
      [ clique_tdown; b_clique_tlong; internet_tdown ],
      fig4_6 );
    ([ "fig5"; "fig7" ], [ clique15_mrai; b_clique10_mrai ], fig5_7);
    ([ "fig8" ], enh_clique_tdown @ enh_internet_tdown, fig8);
    ([ "fig9" ], enh_b_clique_tlong @ enh_internet_tlong, fig9);
  ]

let names = List.sort compare (List.concat_map (fun (ns, _, _) -> ns) groups)

let run ~jobs ?dir wanted =
  List.iter
    (fun n ->
      if not (List.mem n names) then
        invalid_arg (Printf.sprintf "Figures.run: unknown figure %S" n))
    wanted;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    dir;
  List.iter
    (fun (ns, series, print) ->
      if wanted = [] || List.exists (fun n -> List.mem n wanted) ns then begin
        let results =
          List.map
            (fun s -> (s, Sweep.series ~jobs ~make:s.make ~seeds:s.seeds s.xs))
            series
        in
        print (fun s -> List.assq s results);
        Option.iter
          (fun dir ->
            List.iter
              (fun (s, points) ->
                let path = Filename.concat dir s.csv in
                Out_channel.with_open_text path (fun oc ->
                    output_string oc
                      (Metrics.Export.series_csv ~x_label:s.x_label points));
                Printf.printf "wrote %s\n%!" path)
              results)
          dir
      end)
    groups

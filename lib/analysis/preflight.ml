type mode = Off | Warn | Strict

exception Rejected of { stage : string; issues : string list }

type report = {
  spvp : Spvp.t;
  lint : Lint.report option;
  bounds : Bounds.t;
}

let mode_name = function Off -> "off" | Warn -> "warn" | Strict -> "strict"

let mode_of_string = function
  | "off" -> Ok Off
  | "warn" -> Ok Warn
  | "strict" -> Ok Strict
  | s -> Error (Printf.sprintf "unknown pre-flight mode %S (off|warn|strict)" s)

let analyze ?max_paths ?gr_rel ?scenario ?clique ?(certified_event = false)
    ~graph ~policy ~origin ~mrai ~params () =
  let spvp = Spvp.analyze ?max_paths ?gr_rel ~graph ~policy ~origin () in
  let lint =
    Option.map (fun sc -> Lint.lint sc ~graph ~origin) scenario
  in
  let epochs =
    match lint with None -> 1 | Some l -> Stdlib.max 1 l.Lint.steps_analyzed
  in
  let bounds =
    Bounds.derive ~graph ~origin ~mrai ~params
      ?enumeration:spvp.Spvp.enumeration ?clique ~epochs ~certified_event ()
  in
  { spvp; lint; bounds }

let blocking r =
  let stages = ref [] in
  (match r.spvp.Spvp.verdict with
  | Spvp.Unsafe w ->
      stages :=
        ( "policy-safety",
          [ Format.asprintf "dispute cycle detected: %a" Spvp.pp_wheel w ] )
        :: !stages
  | Spvp.Safe _ | Spvp.Unknown _ -> ());
  (match r.lint with
  | Some l when Lint.has_errors l ->
      stages :=
        ( "scenario-lint",
          List.map
            (fun (i : Lint.issue) ->
              Printf.sprintf "[%s] %s" i.Lint.code i.Lint.message)
            (Lint.errors l) )
        :: !stages
  | _ -> ());
  List.rev !stages

let gate r =
  match blocking r with
  | [] -> ()
  | (stage, issues) :: _ -> raise (Rejected { stage; issues })

(* -- JSON ---------------------------------------------------------- *)

let json_ints l = Json.List (List.map (fun i -> Json.Int i) l)

let json_verdict (v : Spvp.verdict) =
  match v with
  | Spvp.Safe (Spvp.Acyclic_dispute_digraph { paths; arcs }) ->
      Json.Obj
        [
          ("result", Json.Str "safe");
          ("certificate", Json.Str "acyclic-dispute-digraph");
          ("paths", Json.Int paths);
          ("arcs", Json.Int arcs);
        ]
  | Spvp.Safe Spvp.Gao_rexford_conformant ->
      Json.Obj
        [ ("result", Json.Str "safe"); ("certificate", Json.Str "gao-rexford") ]
  | Spvp.Unsafe w ->
      Json.Obj
        [
          ("result", Json.Str "unsafe");
          ( "cycle",
            Json.List
              (List.map
                 (fun (p, kind) ->
                   Json.Obj
                     [
                       ("path", json_ints p);
                       ( "arc",
                         Json.Str
                           (match kind with
                           | Spvp.Transmission -> "transmission"
                           | Spvp.Dispute -> "dispute") );
                     ])
                 w.Spvp.cycle) );
        ]
  | Spvp.Unknown reason ->
      Json.Obj [ ("result", Json.Str "unknown"); ("reason", Json.Str reason) ]

let json_lint (l : Lint.report) =
  Json.Obj
    [
      ( "issues",
        Json.List
          (List.map
             (fun (i : Lint.issue) ->
               Json.Obj
                 [
                   ("severity", Json.Str (Lint.severity_name i.Lint.severity));
                   ("code", Json.Str i.Lint.code);
                   ("message", Json.Str i.Lint.message);
                 ])
             l.Lint.issues) );
      ( "partitions",
        Json.List
          (List.map
             (fun (p : Lint.partition) ->
               Json.Obj
                 [
                   ("from", Json.Float p.Lint.from_);
                   ( "until",
                     match p.Lint.until with
                     | None -> Json.Null
                     | Some t -> Json.Float t );
                   ("nodes", json_ints p.Lint.nodes);
                 ])
             l.Lint.partitions) );
      ("steps_analyzed", Json.Int l.Lint.steps_analyzed);
      ("random_clauses", Json.Int l.Lint.random_clauses);
    ]

let json_bounds (b : Bounds.t) =
  Json.Obj
    [
      ("n_nodes", Json.Int b.Bounds.n_nodes);
      ("exploration_depth", Json.Int b.Bounds.exploration_depth);
      ("depth_exact", Json.Bool b.Bounds.depth_exact);
      ("rank_max", Json.Float b.Bounds.rank_max);
      ("paths_total", Json.Float b.Bounds.paths_total);
      ("mrai_rounds", Json.Float b.Bounds.mrai_rounds);
      ("time_bound_s", Json.Float b.Bounds.time_bound_s);
      ( "time_certainty",
        Json.Str (Bounds.certainty_name b.Bounds.time_certainty) );
      ("updates_bound", Json.Float b.Bounds.updates_bound);
      ("epochs", Json.Int b.Bounds.epochs);
    ]

let to_json r =
  Json.Obj
    ([
       ("policy_safety", json_verdict r.spvp.Spvp.verdict);
       ("unreachable", json_ints r.spvp.Spvp.unreachable);
     ]
    @ (match r.lint with
      | None -> []
      | Some l -> [ ("scenario_lint", json_lint l) ])
    @ [
        ("bounds", json_bounds r.bounds);
        ("admissible", Json.Bool (blocking r = []));
      ])

let pp fmt r =
  Format.fprintf fmt "@[<v>pre-flight: %a" Spvp.pp r.spvp;
  (match r.lint with
  | None -> ()
  | Some l -> Format.fprintf fmt "@,%a" Lint.pp l);
  Format.fprintf fmt "@,%a" Bounds.pp r.bounds;
  (match blocking r with
  | [] -> Format.fprintf fmt "@,admissible: yes"
  | stages ->
      Format.fprintf fmt "@,admissible: NO";
      List.iter
        (fun (stage, issues) ->
          List.iter
            (fun i -> Format.fprintf fmt "@,  %s: %s" stage i)
            issues)
        stages);
  Format.fprintf fmt "@]"

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
    ?epochs ~graph ~policy ~origin ~mrai ~params () =
  let spvp = Spvp.analyze ?max_paths ?gr_rel ~graph ~policy ~origin () in
  let lint =
    Option.map (fun sc -> Lint.lint sc ~graph ~origin) scenario
  in
  let epochs =
    match (epochs, lint) with
    | Some e, _ -> e
    | None, None -> 1
    | None, Some l -> Stdlib.max 1 l.Lint.steps_analyzed
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

let gate mode r =
  match mode with
  | Off | Warn -> ()
  | Strict -> (
      match blocking r with
      | [] -> ()
      | (stage, issues) :: _ -> raise (Rejected { stage; issues }))

(* -- JSON ---------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (json_escape s)

let jfloat x =
  (* bgpsim-lint: allow D004 — infinity is an exact sentinel, not a computed time *)
  if x = infinity then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let jlist items = "[" ^ String.concat "," items ^ "]"

let jobj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let json_path p = jlist (List.map string_of_int p)

let json_verdict (v : Spvp.verdict) =
  match v with
  | Spvp.Safe (Spvp.Acyclic_dispute_digraph { paths; arcs }) ->
      jobj
        [
          ("result", jstr "safe");
          ("certificate", jstr "acyclic-dispute-digraph");
          ("paths", string_of_int paths);
          ("arcs", string_of_int arcs);
        ]
  | Spvp.Safe Spvp.Gao_rexford_conformant ->
      jobj
        [ ("result", jstr "safe"); ("certificate", jstr "gao-rexford") ]
  | Spvp.Unsafe w ->
      jobj
        [
          ("result", jstr "unsafe");
          ( "cycle",
            jlist
              (List.map
                 (fun (p, kind) ->
                   jobj
                     [
                       ("path", json_path p);
                       ( "arc",
                         jstr
                           (match kind with
                           | Spvp.Transmission -> "transmission"
                           | Spvp.Dispute -> "dispute") );
                     ])
                 w.Spvp.cycle) );
        ]
  | Spvp.Unknown reason ->
      jobj [ ("result", jstr "unknown"); ("reason", jstr reason) ]

let json_lint (l : Lint.report) =
  jobj
    [
      ( "issues",
        jlist
          (List.map
             (fun (i : Lint.issue) ->
               jobj
                 [
                   ("severity", jstr (Lint.severity_name i.Lint.severity));
                   ("code", jstr i.Lint.code);
                   ("message", jstr i.Lint.message);
                 ])
             l.Lint.issues) );
      ( "partitions",
        jlist
          (List.map
             (fun (p : Lint.partition) ->
               jobj
                 [
                   ("from", jfloat p.Lint.from_);
                   ( "until",
                     match p.Lint.until with
                     | None -> "null"
                     | Some t -> jfloat t );
                   ("nodes", jlist (List.map string_of_int p.Lint.nodes));
                 ])
             l.Lint.partitions) );
      ("steps_analyzed", string_of_int l.Lint.steps_analyzed);
      ("random_clauses", string_of_int l.Lint.random_clauses);
    ]

let json_bounds (b : Bounds.t) =
  jobj
    [
      ("n_nodes", string_of_int b.Bounds.n_nodes);
      ("exploration_depth", string_of_int b.Bounds.exploration_depth);
      ("depth_exact", string_of_bool b.Bounds.depth_exact);
      ("rank_max", jfloat b.Bounds.rank_max);
      ("paths_total", jfloat b.Bounds.paths_total);
      ("mrai_rounds", jfloat b.Bounds.mrai_rounds);
      ("time_bound_s", jfloat b.Bounds.time_bound_s);
      ( "time_certainty",
        jstr (Bounds.certainty_name b.Bounds.time_certainty) );
      ("updates_bound", jfloat b.Bounds.updates_bound);
      ("epochs", string_of_int b.Bounds.epochs);
    ]

let to_json r =
  let fields =
    [
      ("policy_safety", json_verdict r.spvp.Spvp.verdict);
      ( "unreachable",
        jlist (List.map string_of_int r.spvp.Spvp.unreachable) );
    ]
    @ (match r.lint with
      | None -> []
      | Some l -> [ ("scenario_lint", json_lint l) ])
    @ [
        ("bounds", json_bounds r.bounds);
        ("admissible", string_of_bool (blocking r = []));
      ]
  in
  jobj fields

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

type status =
  | Open
  | Suppressed_comment of string
  | Allowlisted of string

type entry = { finding : Finding.t; status : status }

type t = {
  entries : entry list;  (* sorted by Finding.compare *)
  config_errors : string list;
  unused_suppressions : (string * int * Rule.t) list;
      (* comment suppressions that matched nothing: informational *)
  unused_allows : Suppress.allow list;
      (* allowlist entries that matched nothing: informational *)
}

let justification = function
  | Open -> None
  | Suppressed_comment j | Allowlisted j -> Some j

let is_open e = e.status = Open

let open_count t = List.length (List.filter is_open t.entries)

let suppressed_count t =
  List.length (List.filter (fun e -> not (is_open e)) t.entries)

let exit_code t =
  if t.config_errors <> [] then 2 else if open_count t > 0 then 1 else 0

(* --- assembly --- *)

let distinct_files findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Finding.t) -> f.file) findings)

let build ~findings ~scan_source ~allows ~allow_errors =
  let files = distinct_files findings in
  let supps_by_file, scan_errors =
    List.fold_left
      (fun (acc, errs) file ->
        let supps, file_errs = scan_source file in
        ((file, supps) :: acc, errs @ file_errs))
      ([], []) files
  in
  let supps_of file =
    match List.assoc_opt file supps_by_file with Some s -> s | None -> []
  in
  let used = ref [] and used_allows = ref [] in
  let classify (f : Finding.t) =
    match
      List.find_opt
        (fun s -> Suppress.covers s ~rule:f.rule ~line:f.line)
        (supps_of f.file)
    with
    | Some s ->
        used := (f.file, s.line, s.rule) :: !used;
        Suppressed_comment s.reason
    | None -> (
        match
          List.find_opt
            (fun a -> Suppress.allow_covers a ~rule:f.rule ~file:f.file)
            allows
        with
        | Some a ->
            used_allows := a :: !used_allows;
            Allowlisted a.a_justification
        | None -> Open)
  in
  let entries =
    findings
    |> List.sort_uniq Finding.compare
    |> List.map (fun f -> { finding = f; status = classify f })
  in
  let unused_suppressions =
    List.concat_map
      (fun (file, supps) ->
        List.filter_map
          (fun (s : Suppress.t) ->
            if List.mem (file, s.line, s.rule) !used then None
            else Some (file, s.line, s.rule))
          supps)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) supps_by_file)
  in
  let unused_allows =
    List.filter (fun a -> not (List.memq a !used_allows)) allows
  in
  {
    entries;
    config_errors = scan_errors @ allow_errors;
    unused_suppressions;
    unused_allows;
  }

(* --- human rendering --- *)

let pp ?(show_suppressed = false) ppf t =
  let f fmt = Format.fprintf ppf fmt in
  List.iter
    (fun e ->
      match e.status with
      | Open ->
          f "%s@\n  fix: %s@\n" (Finding.to_string e.finding)
            (Rule.fix_hint e.finding.Finding.rule)
      | Suppressed_comment j when show_suppressed ->
          f "%s@\n  suppressed (comment): %s@\n" (Finding.to_string e.finding) j
      | Allowlisted j when show_suppressed ->
          f "%s@\n  suppressed (allowlist): %s@\n" (Finding.to_string e.finding) j
      | Suppressed_comment _ | Allowlisted _ -> ())
    t.entries;
  List.iter
    (fun (file, line, rule) ->
      f "%s:%d: warning: unused suppression for %s@\n" file line (Rule.id rule))
    t.unused_suppressions;
  List.iter
    (fun (a : Suppress.allow) ->
      f "%s: warning: unused allowlist entry for %s@\n" a.a_file
        (Rule.id a.a_rule))
    t.unused_allows;
  List.iter (fun e -> f "config error: %s@\n" e) t.config_errors;
  f "bgpsim-lint: %d finding%s (%d open, %d suppressed)%s@."
    (List.length t.entries)
    (if List.length t.entries = 1 then "" else "s")
    (open_count t) (suppressed_count t)
    (if t.config_errors <> [] then
       Printf.sprintf ", %d config error(s)" (List.length t.config_errors)
     else "")

let to_text ?show_suppressed t =
  Format.asprintf "%a" (fun ppf -> pp ?show_suppressed ppf) t

(* --- JSON --- *)

let schema = "bgpsim-lint/1"

let status_kind = function
  | Open -> "open"
  | Suppressed_comment _ -> "comment"
  | Allowlisted _ -> "allowlist"

let entry_to_json e =
  let f = e.finding in
  Json.Obj
    ([
       ("rule", Json.Str (Rule.id f.Finding.rule));
       ("title", Json.Str (Rule.title f.Finding.rule));
       ("file", Json.Str f.Finding.file);
       ("line", Json.Int f.Finding.line);
       ("col", Json.Int f.Finding.col);
       ("witness", Json.Str f.Finding.witness);
       ("status", Json.Str (status_kind e.status));
     ]
    @
    match justification e.status with
    | None -> []
    | Some j -> [ ("justification", Json.Str j) ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length t.entries));
            ("open", Json.Int (open_count t));
            ("suppressed", Json.Int (suppressed_count t));
            ("config_errors", Json.Int (List.length t.config_errors));
          ] );
      ("findings", Json.List (List.map entry_to_json t.entries));
      ("errors", Json.List (List.map (fun e -> Json.Str e) t.config_errors));
    ]

let to_json_string t = Json.to_string (to_json t)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req what = function Some v -> Ok v | None -> Error ("missing " ^ what)

let entry_of_json j =
  let* rule_id = req "rule" (Option.bind (Json.member "rule" j) Json.to_str) in
  let* rule =
    match Rule.of_id rule_id with
    | Some r -> Ok r
    | None -> Error ("unknown rule " ^ rule_id)
  in
  let* file = req "file" (Option.bind (Json.member "file" j) Json.to_str) in
  let* line = req "line" (Option.bind (Json.member "line" j) Json.to_int) in
  let* col = req "col" (Option.bind (Json.member "col" j) Json.to_int) in
  let* witness =
    req "witness" (Option.bind (Json.member "witness" j) Json.to_str)
  in
  let* kind =
    req "status" (Option.bind (Json.member "status" j) Json.to_str)
  in
  let just =
    match Option.bind (Json.member "justification" j) Json.to_str with
    | Some j -> j
    | None -> ""
  in
  let* status =
    match kind with
    | "open" -> Ok Open
    | "comment" -> Ok (Suppressed_comment just)
    | "allowlist" -> Ok (Allowlisted just)
    | k -> Error ("unknown status " ^ k)
  in
  Ok { finding = Finding.make ~rule ~file ~line ~col ~witness; status }

let of_json_string s =
  let* j = Json.of_string s in
  let* sch =
    req "schema" (Option.bind (Json.member "schema" j) Json.to_str)
  in
  let* () =
    if sch = schema then Ok () else Error ("unknown schema " ^ sch)
  in
  let* findings =
    req "findings" (Option.bind (Json.member "findings" j) Json.to_list)
  in
  let* entries =
    List.fold_left
      (fun acc ej ->
        let* acc = acc in
        let* e = entry_of_json ej in
        Ok (e :: acc))
      (Ok []) findings
  in
  let errors =
    match Option.bind (Json.member "errors" j) Json.to_list with
    | Some l -> List.filter_map Json.to_str l
    | None -> []
  in
  Ok
    {
      entries = List.rev entries;
      config_errors = errors;
      unused_suppressions = [];
      unused_allows = [];
    }

(* Suppressions: in-source comments and the committed allowlist.

   A comment of the form

     (* bgpsim-lint: allow D001 — reason *)

   suppresses findings of that rule on the same line and on the
   following line.  The reason is mandatory: a suppression that does
   not argue why the site is safe is a config error, not a pass.

   The allowlist file holds one entry per line,

     D004 lib/stats/histogram.ml — reason

   suppressing every finding of that rule in that file; '#' starts a
   comment line.  Justifications are mandatory there too. *)

type t = { rule : Rule.t; line : int; reason : string }

type allow = { a_rule : Rule.t; a_file : string; a_justification : string }

let marker = "bgpsim-lint:"

let is_space c = c = ' ' || c = '\t'

let skip_spaces s i =
  let n = String.length s in
  let i = ref i in
  while !i < n && is_space s.[!i] do
    incr i
  done;
  !i

(* Strip one separator token — an em-dash (UTF-8 \xe2\x80\x94), "--"
   or "-" — returning the position after it, or None if absent. *)
let strip_separator s i =
  let n = String.length s in
  if i + 3 <= n && String.sub s i 3 = "\xe2\x80\x94" then Some (i + 3)
  else if i + 2 <= n && String.sub s i 2 = "--" then Some (i + 2)
  else if i < n && s.[i] = '-' then Some (i + 1)
  else None

let take_word s i =
  let n = String.length s in
  let j = ref i in
  while
    !j < n && (not (is_space s.[!j])) && s.[!j] <> '*' && s.[!j] <> ')'
  do
    incr j
  done;
  (String.sub s i (!j - i), !j)

let trim_reason r =
  (* the comment closer, if present on the same line, is not part of
     the justification *)
  let r =
    match String.index_opt r '*' with
    | Some i when i + 1 < String.length r && r.[i + 1] = ')' ->
        String.sub r 0 i
    | _ -> r
  in
  String.trim r

(* Parse the directive starting right after [marker] in [s]. *)
let parse_directive ~file ~line s i =
  let err msg = Error (Printf.sprintf "%s:%d: %s" file line msg) in
  let i = skip_spaces s i in
  let word, i = take_word s i in
  if word <> "allow" then
    err (Printf.sprintf "unknown %s directive %S (expected \"allow\")" marker word)
  else
    let i = skip_spaces s i in
    let rid, i = take_word s i in
    match Rule.of_id rid with
    | None -> err (Printf.sprintf "unknown rule id %S in suppression" rid)
    | Some rule -> (
        let i = skip_spaces s i in
        match strip_separator s i with
        | None ->
            err
              (Printf.sprintf
                 "suppression for %s is missing its \xe2\x80\x94 justification"
                 rid)
        | Some i ->
            let reason =
              trim_reason (String.sub s i (String.length s - i))
            in
            if reason = "" then
              err
                (Printf.sprintf
                   "suppression for %s has an empty justification" rid)
            else Ok { rule; line; reason })

let scan_lines ~file lines =
  let supps = ref [] and errors = ref [] in
  List.iteri
    (fun idx line_text ->
      let line = idx + 1 in
      match
        (* comments do not nest markers; one directive per line *)
        let rec find i =
          if i + String.length marker > String.length line_text then None
          else if String.sub line_text i (String.length marker) = marker then
            Some (i + String.length marker)
          else find (i + 1)
        in
        find 0
      with
      | None -> ()
      | Some i -> (
          match parse_directive ~file ~line line_text i with
          | Ok s -> supps := s :: !supps
          | Error e -> errors := e :: !errors))
    lines;
  (List.rev !supps, List.rev !errors)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let scan_file path =
  match read_lines path with
  | lines -> scan_lines ~file:path lines
  | exception Sys_error msg -> ([], [ msg ])

(* A comment on line N covers findings on lines N and N+1. *)
let covers (s : t) ~rule ~line = s.rule = rule && (line = s.line || line = s.line + 1)

let parse_allowlist_lines ~file lines =
  let allows = ref [] and errors = ref [] in
  List.iteri
    (fun idx line_text ->
      let line = idx + 1 in
      let err msg =
        errors := Printf.sprintf "%s:%d: %s" file line msg :: !errors
      in
      let s = String.trim line_text in
      if s = "" || s.[0] = '#' then ()
      else
        let rid, i = take_word s 0 in
        match Rule.of_id rid with
        | None -> err (Printf.sprintf "unknown rule id %S in allowlist" rid)
        | Some a_rule -> (
            let i = skip_spaces s i in
            let a_file, i = take_word s i in
            if a_file = "" then err "allowlist entry is missing a file path"
            else
              let i = skip_spaces s i in
              match strip_separator s i with
              | None ->
                  err
                    (Printf.sprintf
                       "allowlist entry for %s %s is missing its \
                        \xe2\x80\x94 justification"
                       rid a_file)
              | Some i ->
                  let a_justification =
                    String.trim (String.sub s i (String.length s - i))
                  in
                  if a_justification = "" then
                    err
                      (Printf.sprintf
                         "allowlist entry for %s %s has an empty justification"
                         rid a_file)
                  else
                    allows := { a_rule; a_file; a_justification } :: !allows))
    lines;
  (List.rev !allows, List.rev !errors)

let parse_allowlist path =
  match read_lines path with
  | lines -> parse_allowlist_lines ~file:path lines
  | exception Sys_error msg -> ([], [ msg ])

let allow_covers (a : allow) ~rule ~file = a.a_rule = rule && a.a_file = file

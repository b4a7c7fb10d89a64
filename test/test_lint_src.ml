(* Tests for the bgpsim-lint analyzer (lib/lint_src):

   - the known-bad fixture corpus: every rule id has a snippet that
     fires it, good twins stay clean, and an in-source suppression
     comment downgrades the finding (compiled with ocamlc -bin-annot
     and run through the same cmt pass as the real tree);
   - suppression-comment and allowlist parsing, in particular that a
     directive without a justification is a config error, never a
     silent pass;
   - report classification, exit codes, and the --json schema
     round-trip, plus the shared JSON writer's floats and escapes;
   - tree coverage: real library units load from their built cmts,
     their per-site suppressions register, the allowlist carries no
     blanket entry for them, and every allowlist entry still covers a
     finding of its rule in its file. *)

open Lint_src

let finding ?(file = "lib/foo.ml") ?(line = 10) ?(col = 2) rule =
  Finding.make ~rule ~file ~line ~col ~witness:"test witness"

let no_supps (_ : string) : Suppress.t list * string list = ([], [])

(* --- fixture corpus --- *)

let test_fixture_corpus () =
  if not (Fixtures.ocamlc_available ()) then
    Alcotest.fail "ocamlc not on PATH; fixture corpus cannot run"
  else
    match Fixtures.check_all () with
    | Ok n -> Alcotest.(check bool) "corpus non-trivial" true (n >= 15)
    | Error msgs -> Alcotest.fail (String.concat "\n" msgs)

let test_every_rule_has_bad_fixture () =
  List.iter
    (fun rule ->
      let fires =
        List.exists
          (fun (fx : Fixtures.fixture) -> fx.expect = Fixtures.Fires rule)
          Fixtures.all
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s has a failing fixture" (Rule.id rule))
        true fires)
    Rule.all

(* --- suppression comments --- *)

let test_suppression_parses () =
  let supps, errs =
    Suppress.scan_lines ~file:"x.ml"
      [ "let a = 1"; "(* bgpsim-lint: allow D001 \xe2\x80\x94 commutative fold *)" ]
  in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  match supps with
  | [ s ] ->
      Alcotest.(check string) "rule" "D001" (Rule.id s.Suppress.rule);
      Alcotest.(check int) "line" 2 s.Suppress.line;
      Alcotest.(check string) "reason" "commutative fold" s.Suppress.reason;
      Alcotest.(check bool) "covers own line" true
        (Suppress.covers s ~rule:Rule.D001 ~line:2);
      Alcotest.(check bool) "covers next line" true
        (Suppress.covers s ~rule:Rule.D001 ~line:3);
      Alcotest.(check bool) "not two lines down" false
        (Suppress.covers s ~rule:Rule.D001 ~line:4);
      Alcotest.(check bool) "not another rule" false
        (Suppress.covers s ~rule:Rule.D004 ~line:2)
  | l -> Alcotest.failf "expected one suppression, got %d" (List.length l)

let test_suppression_requires_justification () =
  let check_error label lines =
    let supps, errs = Suppress.scan_lines ~file:"x.ml" lines in
    Alcotest.(check int) (label ^ ": no suppression") 0 (List.length supps);
    Alcotest.(check bool) (label ^ ": reported") true (errs <> [])
  in
  check_error "no separator" [ "(* bgpsim-lint: allow D001 *)" ];
  check_error "empty reason" [ "(* bgpsim-lint: allow D001 \xe2\x80\x94 *)" ];
  check_error "unknown rule" [ "(* bgpsim-lint: allow D999 \xe2\x80\x94 x *)" ];
  check_error "unknown directive" [ "(* bgpsim-lint: deny D001 \xe2\x80\x94 x *)" ]

let test_suppression_ascii_separator () =
  let supps, errs =
    Suppress.scan_lines ~file:"x.ml"
      [ "(* bgpsim-lint: allow D004 -- exact sentinel *)" ]
  in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  Alcotest.(check int) "one suppression" 1 (List.length supps)

(* --- allowlist --- *)

let test_allowlist_parses () =
  let allows, errs =
    Suppress.parse_allowlist_lines ~file:"allow.txt"
      [
        "# comment";
        "";
        "D003 lib/core/parallel.ml \xe2\x80\x94 the hygiene guard itself";
      ]
  in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  match allows with
  | [ a ] ->
      Alcotest.(check bool) "covers the file" true
        (Suppress.allow_covers a ~rule:Rule.D003 ~file:"lib/core/parallel.ml");
      Alcotest.(check bool) "not another file" false
        (Suppress.allow_covers a ~rule:Rule.D003 ~file:"lib/core/other.ml")
  | l -> Alcotest.failf "expected one allow, got %d" (List.length l)

let test_allowlist_requires_justification () =
  let allows, errs =
    Suppress.parse_allowlist_lines ~file:"allow.txt"
      [ "D003 lib/core/parallel.ml" ]
  in
  Alcotest.(check int) "rejected" 0 (List.length allows);
  Alcotest.(check bool) "reported" true (errs <> []);
  let report =
    Report.build ~findings:[] ~scan_source:no_supps ~allows ~allow_errors:errs
  in
  Alcotest.(check int) "config errors exit 2" 2 (Report.exit_code report)

(* --- report classification and exit codes --- *)

let test_exit_codes () =
  let open_report =
    Report.build ~findings:[ finding Rule.D001 ] ~scan_source:no_supps
      ~allows:[] ~allow_errors:[]
  in
  Alcotest.(check int) "open finding exits 1" 1 (Report.exit_code open_report);
  let suppressed =
    Report.build ~findings:[ finding Rule.D001 ]
      ~scan_source:(fun _ ->
        ([ { Suppress.rule = Rule.D001; line = 9; reason = "safe" } ], []))
      ~allows:[] ~allow_errors:[]
  in
  Alcotest.(check int) "comment on previous line suppresses" 0
    (Report.exit_code suppressed);
  let allow rule file =
    { Suppress.a_rule = rule; a_file = file; a_justification = "safe" }
  in
  let allowlisted =
    Report.build ~findings:[ finding Rule.D001 ] ~scan_source:no_supps
      ~allows:
        [
          allow Rule.D001 "lib/foo.ml";
          allow Rule.D003 "lib/foo.ml";
          allow Rule.D001 "lib/bar.ml";
        ]
      ~allow_errors:[]
  in
  Alcotest.(check int) "allowlisted exits 0" 0 (Report.exit_code allowlisted);
  (* entries that cover nothing are listed, and do not change the exit
     code *)
  Alcotest.(check (list (pair string string)))
    "unused allowlist entries"
    [ ("D003", "lib/foo.ml"); ("D001", "lib/bar.ml") ]
    (List.map
       (fun (a : Suppress.allow) -> (Rule.id a.a_rule, a.a_file))
       allowlisted.unused_allows);
  Alcotest.(check int) "clean exits 0" 0
    (Report.exit_code
       (Report.build ~findings:[] ~scan_source:no_supps ~allows:[]
          ~allow_errors:[]))

let test_wrong_rule_does_not_suppress () =
  let report =
    Report.build ~findings:[ finding Rule.D002 ]
      ~scan_source:(fun _ ->
        ([ { Suppress.rule = Rule.D001; line = 10; reason = "safe" } ], []))
      ~allows:[] ~allow_errors:[]
  in
  Alcotest.(check int) "still open" 1 (Report.open_count report)

(* --- real tree units are covered by the scan --- *)

(* [dune runtest] runs in _build/default/test, where [..] is dune's copy
   of the tree, refreshed for the run.  A direct run ([dune exec], or the
   binary started from the repo root) reads the repo root, whose
   allowlist and sources are the current ones; dune's copy of them is
   refreshed only when a build needs it.  So sources and the allowlist
   are looked up in the source tree first, and cmts in the build tree
   first. *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Alcotest.failf "none of [%s] exist (build the tree first)"
        (String.concat "; " candidates)

let source p = [ p; Filename.concat ".." p ]

let built p = [ Filename.concat "_build/default" p; Filename.concat ".." p ]

(* (label, cmt, source, minimum comment-suppressed findings): the
   event queue's seq tie-breaks and the link's zero-probability test
   are per-site [allow D004] comments *)
let tree_units =
  [
    ( "Dessim.Event_queue",
      "lib/dessim/.dessim.objs/byte/dessim__Event_queue.cmt",
      "lib/dessim/event_queue.ml",
      3 );
    ( "Dessim.Engine",
      "lib/dessim/.dessim.objs/byte/dessim__Engine.cmt",
      "lib/dessim/engine.ml",
      0 );
    ( "Netcore.Link",
      "lib/netcore/.netcore.objs/byte/netcore__Link.cmt",
      "lib/netcore/link.ml",
      1 );
  ]

let test_tree_units_covered () =
  (* the analyzer must load each unit from its real cmt, and every
     finding in it must be suppressed by an in-source justified
     comment — the same pass `dune build @lint` runs over the tree.
     Suppressed findings must register as such, not as silence: proof
     the rule actually visits the code. *)
  let scan_source file = Suppress.scan_file (locate (source file)) in
  List.iter
    (fun (label, cmt, _src, min_suppressed) ->
      match Analyze.analyze_cmt (locate (built cmt)) with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok (_, findings) ->
          let report =
            Report.build ~findings ~scan_source ~allows:[] ~allow_errors:[]
          in
          Alcotest.(check int)
            (label ^ ": no open findings")
            0 (Report.open_count report);
          Alcotest.(check bool)
            (Printf.sprintf "%s: at least %d comment-suppressed findings" label
               min_suppressed)
            true
            (Report.suppressed_count report >= min_suppressed))
    tree_units

let test_tree_units_not_allowlisted () =
  (* per-site suppressions only: the committed allowlist must carry no
     blanket entry for any of these files *)
  let allows, errs =
    Suppress.parse_allowlist (locate (source "lint_allowlist.txt"))
  in
  Alcotest.(check (list string)) "allowlist parses" [] errs;
  List.iter
    (fun (label, _cmt, src, _) ->
      List.iter
        (fun rule ->
          Alcotest.(check bool)
            (Printf.sprintf "%s not allowlisted for %s" label (Rule.id rule))
            false
            (List.exists
               (fun a -> Suppress.allow_covers a ~rule ~file:src)
               allows))
        Rule.all)
    tree_units

let test_allowlist_entries_used () =
  (* an entry whose findings have gone covers nothing, and would
     silently allow whatever later lands in its file: over the built
     tree, as bgpsim-lint sees it, no committed entry may go unused *)
  let allowlist = locate (source "lint_allowlist.txt") in
  let root = Filename.dirname allowlist in
  let build_root = Filename.dirname (locate (built "lib")) in
  let allows, errs = Suppress.parse_allowlist allowlist in
  Alcotest.(check (list string)) "allowlist parses" [] errs;
  let findings, errs = Analyze.analyze_tree (Analyze.tree_cmts build_root) in
  Alcotest.(check (list string)) "tree analyses" [] errs;
  let report =
    Report.build ~findings
      ~scan_source:(fun file -> Suppress.scan_file (Filename.concat root file))
      ~allows ~allow_errors:[]
  in
  Alcotest.(check (list string))
    "unused allowlist entries" []
    (List.map
       (fun (a : Suppress.allow) ->
         Printf.sprintf "%s %s" (Rule.id a.a_rule) a.a_file)
       report.unused_allows)

(* --- JSON round-trip --- *)

let test_json_roundtrip () =
  let report =
    Report.build
      ~findings:
        [
          finding Rule.D001;
          finding ~file:"lib/bar.ml" ~line:3 ~col:0 Rule.M001;
          finding ~line:20 Rule.D004;
        ]
      ~scan_source:(fun file ->
        if file = "lib/foo.ml" then
          ([ { Suppress.rule = Rule.D004; line = 19; reason = "sentinel" } ], [])
        else ([], []))
      ~allows:
        [
          {
            Suppress.a_rule = Rule.M001;
            a_file = "lib/bar.ml";
            a_justification = "guarded upstream";
          };
        ]
      ~allow_errors:[]
  in
  let s = Report.to_json_string report in
  match Report.of_json_string s with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "entry count" 3 (List.length back.Report.entries);
      Alcotest.(check int) "open count" (Report.open_count report)
        (Report.open_count back);
      Alcotest.(check int) "suppressed count" (Report.suppressed_count report)
        (Report.suppressed_count back);
      List.iter2
        (fun (a : Report.entry) (b : Report.entry) ->
          Alcotest.(check int) "finding equal" 0
            (Finding.compare a.finding b.finding);
          Alcotest.(check bool) "status equal" true (a.status = b.status))
        report.Report.entries back.Report.entries;
      (* re-serializing the parsed report is byte-identical *)
      Alcotest.(check string) "stable serialization" s
        (Report.to_json_string back)

let test_json_schema_tag () =
  let report =
    Report.build ~findings:[] ~scan_source:no_supps ~allows:[] ~allow_errors:[]
  in
  match Json.of_string (Report.to_json_string report) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Option.bind (Json.member "schema" j) Json.to_str with
      | None -> Alcotest.fail "missing schema field"
      | Some schema ->
          Alcotest.(check string) "schema tag" Report.schema schema)

let test_json_float () =
  let emit x = Json.to_string (Json.Float x) in
  Alcotest.(check string) "integral" "3" (emit 3.);
  Alcotest.(check string) "fraction" "1.5e-07" (emit 1.5e-7);
  Alcotest.(check string) "infinity" "null" (emit infinity);
  Alcotest.(check string) "nan" "null" (emit Float.nan);
  (* parsing the emitted bytes and emitting again is the identity *)
  List.iter
    (fun x ->
      match Json.of_string (emit x) with
      | Error e -> Alcotest.fail e
      | Ok v -> Alcotest.(check string) "re-emitted" (emit x) (Json.to_string v))
    [ 3.; 1.5e-7; infinity ];
  Alcotest.(check bool)
    "an exponent reads back as Float" true
    (Json.of_string (emit 1.5e-7) = Ok (Json.Float 1.5e-7))

let test_json_escaped_string () =
  let name = "tri\"q\\edges" in
  match Json.of_string (Json.to_string (Json.Obj [ ("name", Json.Str name) ])) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (option string))
        "quote and backslash survive" (Some name)
        (Option.bind (Json.member "name" j) Json.to_str)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lint_src"
    [
      ( "fixtures",
        [
          tc "corpus" test_fixture_corpus;
          tc "every rule has a bad fixture" test_every_rule_has_bad_fixture;
        ] );
      ( "suppressions",
        [
          tc "directive parses" test_suppression_parses;
          tc "justification mandatory" test_suppression_requires_justification;
          tc "ascii separator" test_suppression_ascii_separator;
        ] );
      ( "allowlist",
        [
          tc "entry parses" test_allowlist_parses;
          tc "justification mandatory" test_allowlist_requires_justification;
        ] );
      ( "report",
        [
          tc "exit codes" test_exit_codes;
          tc "wrong rule does not suppress" test_wrong_rule_does_not_suppress;
        ] );
      ( "json",
        [
          tc "round-trip" test_json_roundtrip;
          tc "schema tag" test_json_schema_tag;
          tc "float round-trip" test_json_float;
          tc "escaped string round-trip" test_json_escaped_string;
        ] );
      ( "tree coverage",
        [
          tc "engine/queue/link scanned" test_tree_units_covered;
          tc "engine/queue/link not allowlisted"
            test_tree_units_not_allowlisted;
          tc "every allowlist entry used" test_allowlist_entries_used;
        ] );
    ]

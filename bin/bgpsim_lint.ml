(* bgpsim-lint: determinism & domain-safety static analysis over the
   simulator's own sources (DESIGN.md §16).

   Reads the .cmt files produced by `dune build @check` for every
   library under lib/ and bin/, evaluates the D/R/M rule set, applies
   in-source suppression comments and the committed allowlist, and
   exits 0 (clean), 1 (unsuppressed findings) or 2 (config errors).

   Run from the repo root (`dune exec bin/bgpsim_lint.exe`), from
   `dune build @lint`, or point --root/--src-root somewhere else. *)

let usage = "bgpsim_lint [--json FILE] [--root DIR] [--src-root DIR] [--allowlist FILE] [--all] [--selftest] [--list-rules]"

let run_selftest () =
  match Lint_src.Fixtures.check_all () with
  | Ok n ->
      Printf.printf "bgpsim-lint selftest: %d fixtures ok\n" n;
      0
  | Error msgs ->
      List.iter (fun m -> Printf.eprintf "selftest failure: %s\n" m) msgs;
      1

let print_rules () =
  List.iter
    (fun r ->
      Printf.printf "%s  %s\n      fix: %s\n" (Lint_src.Rule.id r)
        (Lint_src.Rule.title r)
        (Lint_src.Rule.fix_hint r))
    Lint_src.Rule.all

let () =
  let json_out = ref "" in
  let root = ref "" in
  let src_root = ref "" in
  let allowlist = ref "" in
  let show_all = ref false in
  let selftest = ref false in
  let list_rules = ref false in
  let spec =
    [
      ("--json", Arg.Set_string json_out, "FILE write the JSON report to FILE");
      ( "--root",
        Arg.Set_string root,
        "DIR directory holding the built cmt tree (default: _build/default \
         if present, else .)" );
      ( "--src-root",
        Arg.Set_string src_root,
        "DIR directory holding the sources for suppression comments \
         (default: the repo root)" );
      ( "--allowlist",
        Arg.Set_string allowlist,
        "FILE allowlist file (default: SRC_ROOT/lint_allowlist.txt if \
         present)" );
      ("--all", Arg.Set show_all, " also print suppressed findings");
      ( "--selftest",
        Arg.Set selftest,
        " compile and check the known-bad fixture corpus, then exit" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !list_rules then begin
    print_rules ();
    exit 0
  end;
  if !selftest then exit (run_selftest ());
  let cmt_root, src_root =
    let auto_build = Filename.concat "_build" "default" in
    let cmt_root =
      if !root <> "" then !root
      else if Sys.file_exists auto_build && Sys.is_directory auto_build then
        auto_build
      else "."
    in
    let src_root = if !src_root <> "" then !src_root else "." in
    (cmt_root, src_root)
  in
  let cmts = Lint_src.Analyze.tree_cmts cmt_root in
  if cmts = [] then begin
    Printf.eprintf
      "bgpsim-lint: no .cmt files under %s/{lib,bin} — run `dune build \
       @check` first\n"
      cmt_root;
    exit 2
  end;
  let findings, analyze_errors = Lint_src.Analyze.analyze_tree cmts in
  let allowlist_path =
    if !allowlist <> "" then Some !allowlist
    else
      let p = Filename.concat src_root "lint_allowlist.txt" in
      if Sys.file_exists p then Some p else None
  in
  let allows, allow_errors =
    match allowlist_path with
    | Some p -> Lint_src.Suppress.parse_allowlist p
    | None -> ([], [])
  in
  let scan_source file =
    Lint_src.Suppress.scan_file (Filename.concat src_root file)
  in
  let report =
    Lint_src.Report.build ~findings ~scan_source ~allows
      ~allow_errors:(analyze_errors @ allow_errors)
  in
  print_string (Lint_src.Report.to_text ~show_suppressed:!show_all report);
  if !json_out <> "" then begin
    let oc = open_out_bin !json_out in
    output_string oc (Lint_src.Report.to_json_string report);
    output_char oc '\n';
    close_out oc
  end;
  exit (Lint_src.Report.exit_code report)

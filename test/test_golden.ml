(* Golden-trace regression suite: recompute each fixture's trace digest
   and compare against the committed test/golden_digests.expected.

   A failure here means simulator behavior drifted (event order, timing
   or decision process changed).  If the drift is intentional,
   regenerate the fixture file with:

     dune exec bin/bgpsim_cli.exe -- golden > test/golden_digests.expected
*)

open Bgpsim

let expected_path = "golden_digests.expected"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let expected () = Golden.parse_expected (read_file expected_path)

let test_fixture_file_well_formed () =
  let pairs = expected () in
  Alcotest.(check (list string))
    "one committed digest per fixture (mesh last), same order"
    (List.map fst Golden.traces)
    (List.map fst pairs);
  List.iter
    (fun (_, d) ->
      Alcotest.(check int) "hex md5 length" 32 (String.length d);
      Alcotest.(check bool) "hex digits" true
        (String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           d))
    pairs

let test_digests_match_committed () =
  let pairs = expected () in
  List.iter
    (fun (name, events) ->
      match List.assoc_opt name pairs with
      | None -> Alcotest.fail ("no committed digest for " ^ name)
      | Some want ->
          Alcotest.(check string)
            (name ^ " digest unchanged")
            want
            (Obs.Trace_digest.of_events (events ())))
    Golden.traces

let test_digest_stable_across_recompute () =
  let f = Golden.canonical in
  Alcotest.(check string) "two runs, one digest" (Golden.digest f)
    (Golden.digest f)

let test_canonical_trace_nonempty () =
  let events = Golden.events Golden.canonical in
  Alcotest.(check bool) "canonical trace has events" true
    (List.length events > 50);
  (* the canonical scenario is a T_down: its trace must carry both
     withdrawals and post-hoc loop lifecycles from the scanner *)
  let has p = List.exists p events in
  Alcotest.(check bool) "has withdrawal" true
    (has (function Obs.Event.Withdrawal _ -> true | _ -> false));
  Alcotest.(check bool) "has loop_detected" true
    (has (function Obs.Event.Loop_detected _ -> true | _ -> false))

let test_find_and_digest_line () =
  (match Golden.find "clique5-tdown" with
  | Some f -> Alcotest.(check string) "find" "clique5-tdown" f.name
  | None -> Alcotest.fail "clique5-tdown not found");
  Alcotest.(check bool) "unknown name" true (Golden.find "nope" = None);
  let f = Golden.canonical in
  Alcotest.(check string) "line format"
    (Printf.sprintf "%s %s" f.name (Golden.digest f))
    (Golden.digest_line f)

let test_parse_expected_skips_noise () =
  let pairs =
    Golden.parse_expected
      "# comment\n\n  name1 abc  \nmalformed-no-space\nname2 def\n"
  in
  Alcotest.(check (list (pair string string)))
    "comments, blanks and malformed lines skipped"
    [ ("name1", "abc"); ("name2", "def") ]
    pairs

(* The binary-trace oracle: for every named trace, the JSONL re-emitted
   from a decoded binary trace must be byte-identical to the JSONL the
   same run writes directly.  This is what lets the binary fast path
   keep the JSONL digests as the golden values; the mesh fixtures take
   the per-prefix-tagged frames (format 2's trailing prefix field)
   through the same oracle. *)
let test_binary_decode_byte_identical () =
  let dir = Filename.temp_file "golden_bin" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let oracle name events digest =
        let jsonl_path = Filename.concat dir (name ^ ".jsonl") in
        let bin_path = Filename.concat dir (name ^ ".bin") in
        let write sink =
          List.iter (Obs.Sink.emit sink) events;
          Obs.Sink.close sink
        in
        write (Obs.Sink.jsonl_file jsonl_path);
        write (Obs.Sink.binary_file bin_path);
        (* decode the binary file back to JSONL, as `trace decode` does *)
        let decoded = Buffer.create 4096 in
        let ic = open_in_bin bin_path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let r = Obs.Binary.open_reader ic in
            let rec loop () =
              match Obs.Binary.input r with
              | Some ev ->
                  Buffer.add_string decoded (Obs.Event.to_json ev);
                  Buffer.add_char decoded '\n';
                  loop ()
              | None -> ()
            in
            loop ());
        Alcotest.(check string)
          (name ^ ": decoded binary = direct JSONL bytes")
          (read_file jsonl_path)
          (Buffer.contents decoded);
        (* and both digests name the same canonical JSONL value *)
        Alcotest.(check string)
          (name ^ ": file digest agrees")
          digest
          (Obs.Trace_digest.of_file jsonl_path)
      in
      List.iter
        (fun (name, events) ->
          oracle name (events ()) (Obs.Trace_digest.of_events (events ())))
        Golden.traces)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "golden"
    [
      ( "fixture-file",
        [
          tc "well-formed" test_fixture_file_well_formed;
          tc "parse skips noise" test_parse_expected_skips_noise;
        ] );
      ( "digests",
        [
          tc "match committed" test_digests_match_committed;
          tc "stable across recompute" test_digest_stable_across_recompute;
          tc "canonical trace nonempty" test_canonical_trace_nonempty;
          tc "find and line format" test_find_and_digest_line;
        ] );
      ( "binary-oracle",
        [ tc "decode byte-identical" test_binary_decode_byte_identical ] );
    ]

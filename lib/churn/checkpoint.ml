(* Versioned churn checkpoints.

   A checkpoint is only ever taken at a drained epoch boundary: the
   engine queue is empty, every MRAI timer is idle and no message is
   in flight, so the whole simulation state reduces to plain data —
   speaker snapshots, the FIB mirror, the loop tracker, the RNG
   streams and the down-link set.  The file is a fixed ASCII header
   (so a wrong file fails loudly, not with a marshal segfault), the
   payload's length (int64 LE) and md5, then the payload: one
   marshalled record, unmarshalled only once its length and digest
   check out.  It is written to a temp file and renamed so a crash
   mid-write never corrupts the previous checkpoint. *)

type t = {
  version : int;
  fingerprint : string;
  epoch : int;
  vtime : float;
  events : int;
  chain : string;
  idle_epochs : int;
  links_down : (int * int) array;
  speakers : Bgp.Speaker.snapshot array;
  fib : int option array;
  scan : Loopscan.Scanner.t;
  rng_proc : Dessim.Rng.t;
  rng_workload : Dessim.Rng.t;
  rng_speakers : Dessim.Rng.t array;
  counters : Obs.Counters.snapshot;
}

(* v2: the trace digest chain folds binary frames (Obs.Binary) instead
   of JSONL lines, so chains written by v1 checkpoints cannot be
   continued — resuming one must fail structurally, not mid-chain.
   v3: Obs.Binary moved to format 2 (trailing optional prefix-id field
   on per-prefix frames), changing the frame bytes the chain folds.
   v4: the payload is preceded by its length and md5. *)
let version = 4
let header_prefix = "bgpsim-churn-ckpt v"
let header = Printf.sprintf "%s%d\n" header_prefix version

exception
  Incompatible_version of { path : string; found : int; expected : int }

exception Corrupt of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Incompatible_version { path; found; expected } ->
        Some
          (Printf.sprintf
             "%s: incompatible checkpoint version %d (this build reads \
              version %d); re-run without --resume to start a fresh chain"
             path found expected)
    | Corrupt { path; reason } ->
        Some
          (Printf.sprintf
             "%s: corrupt churn checkpoint (%s); remove it to resume from \
              an earlier checkpoint, or re-run without --resume"
             path reason)
    | _ -> None)

(* payload length (int64 LE) + md5 of the payload *)
let prologue_len = 8 + 16

let file_name epoch = Printf.sprintf "ckpt-%06d.bin" epoch

let path ~dir ~epoch = Filename.concat dir (file_name epoch)

let write ~dir t =
  if t.version <> version then invalid_arg "Checkpoint.write: bad version";
  let final = path ~dir ~epoch:t.epoch in
  let tmp = final ^ ".tmp" in
  let payload = Marshal.to_string t [] in
  let length = Bytes.create 8 in
  Bytes.set_int64_le length 0 (Int64.of_int (String.length payload));
  let oc = open_out_bin tmp in
  (try
     output_string oc header;
     output_bytes oc length;
     output_string oc (Digest.string payload);
     output_string oc payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp final;
  final

let read p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* all header versions are single-digit so far, so every header
         has the same length and one fixed-size read suffices *)
      let h =
        try really_input_string ic (String.length header)
        with End_of_file ->
          failwith (p ^ ": truncated churn checkpoint")
      in
      let pl = String.length header_prefix in
      if
        String.length h < pl + 2
        || String.sub h 0 pl <> header_prefix
        || h.[String.length h - 1] <> '\n'
      then failwith (p ^ ": not a " ^ header_prefix ^ "N checkpoint");
      (match int_of_string_opt (String.sub h pl (String.length h - pl - 1)) with
      | None -> failwith (p ^ ": not a " ^ header_prefix ^ "N checkpoint")
      | Some v when v <> version ->
          raise (Incompatible_version { path = p; found = v; expected = version })
      | Some _ -> ());
      let corrupt reason = raise (Corrupt { path = p; reason }) in
      let prologue =
        try really_input_string ic prologue_len
        with End_of_file -> corrupt "truncated before the payload"
      in
      let len = Int64.to_int (String.get_int64_le prologue 0) in
      let held = in_channel_length ic - pos_in ic in
      if len <> held then
        corrupt
          (Printf.sprintf "payload is %d bytes, its length field says %d" held
             len);
      let payload = really_input_string ic len in
      if Digest.string payload <> String.sub prologue 8 16 then
        corrupt "payload md5 mismatch";
      let t : t = Marshal.from_string payload 0 in
      if t.version <> version then
        raise
          (Incompatible_version
             { path = p; found = t.version; expected = version });
      t)

(* epoch number encoded in a checkpoint file name, if it is one *)
let epoch_of_name name =
  let prefix = "ckpt-" and suffix = ".bin" in
  let pl = String.length prefix and sl = String.length suffix in
  let nl = String.length name in
  if
    nl > pl + sl
    && String.sub name 0 pl = prefix
    && String.sub name (nl - sl) sl = suffix
  then int_of_string_opt (String.sub name pl (nl - pl - sl))
  else None

let latest ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match epoch_of_name name with
           | Some e -> Some (e, Filename.concat dir name)
           | None -> None)
    |> List.fold_left
         (fun acc (e, p) ->
           match acc with
           | Some (best, _) when best >= e -> acc
           | _ -> Some (e, p))
         None

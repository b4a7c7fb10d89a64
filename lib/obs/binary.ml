(* Length-prefixed binary trace codec.

   Layout (DESIGN.md 14):
   - stream header: 8-byte magic "BGPTRACE" + 1 version byte
   - per event: one frame = unsigned-LEB128 payload length + payload
   - payload: 1 tag byte (constructor order) + fields in declaration
     order; times are IEEE-754 float64 little-endian, ints are int32
     little-endian (range-checked on encode), bools and option flags
     are 1 byte, member lists are a LEB128 count + int32 LE each.

   Everything here must stay byte-stable across runs and platforms:
   the churn digest chain folds these frames, and the decode oracle
   re-emits JSONL that the golden digests check. *)

let magic = "BGPTRACE"

(* v2: the per-prefix events (update_sent/recv, originate, withdrawal,
   fib_change, loop_detected/resolved) gained a trailing optional
   prefix-id field.  v1 frames for those tags are one field short, so
   a v1 stream cannot be decoded by this build: the header check
   rejects it structurally (not with a parse error mid-stream). *)
let version = 2
let header = magic ^ String.make 1 (Char.chr version)

exception Unsupported_version of { found : int; expected : int }

let () =
  Printexc.register_printer (function
    | Unsupported_version { found; expected } ->
        Some
          (Printf.sprintf
             "Obs.Binary: unsupported trace format version %d (this build \
              reads version %d); re-record the trace with this build"
             found expected)
    | _ -> None)

let corrupt fmt = Printf.ksprintf failwith ("Obs.Binary: " ^^ fmt)

(* -- encoding -------------------------------------------------------- *)

let add_varint buf n =
  (* unsigned LEB128; n is always >= 0 here (lengths and counts) *)
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let add_int32 buf n =
  if n < Int32.to_int Int32.min_int || n > Int32.to_int Int32.max_int then
    corrupt "int field %d out of int32 range" n;
  Buffer.add_int32_le buf (Int32.of_int n)

let add_time buf t = Buffer.add_int64_le buf (Int64.bits_of_float t)
let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_opt_int buf = function
  | None -> Buffer.add_char buf '\000'
  | Some n ->
      Buffer.add_char buf '\001';
      add_int32 buf n

let add_members buf members =
  add_varint buf (List.length members);
  List.iter (fun m -> add_int32 buf m) members

let reason_byte : Event.drop_reason -> char = function
  | Event.Down -> '\000'
  | Event.Loss -> '\001'
  | Event.Stale_epoch -> '\002'

(* Payloads are appended to a scratch buffer first so the frame's
   length prefix can be written before the payload bytes without a
   second pass.  The buffer is per-domain (Domain.DLS): encoders in
   parallel sweep workers must not share one scratch area. *)
let scratch_key = Domain.DLS.new_key (fun () -> Buffer.create 256)

let add_payload buf (ev : Event.t) =
  match ev with
  | Update_sent { time; src; dst; withdraw; prefix } ->
      Buffer.add_char buf '\000';
      add_time buf time;
      add_int32 buf src;
      add_int32 buf dst;
      add_bool buf withdraw;
      add_opt_int buf prefix
  | Update_recv { time; node; from; withdraw; prefix } ->
      Buffer.add_char buf '\001';
      add_time buf time;
      add_int32 buf node;
      add_int32 buf from;
      add_bool buf withdraw;
      add_opt_int buf prefix
  | Originate { time; node; prefix } ->
      Buffer.add_char buf '\002';
      add_time buf time;
      add_int32 buf node;
      add_opt_int buf prefix
  | Withdrawal { time; node; prefix } ->
      Buffer.add_char buf '\003';
      add_time buf time;
      add_int32 buf node;
      add_opt_int buf prefix
  | Fib_change { time; node; next_hop; prefix } ->
      Buffer.add_char buf '\004';
      add_time buf time;
      add_int32 buf node;
      add_opt_int buf next_hop;
      add_opt_int buf prefix
  | Mrai_fire { time; node; peer } ->
      Buffer.add_char buf '\005';
      add_time buf time;
      add_int32 buf node;
      add_int32 buf peer
  | Node_busy { time; node; depth } ->
      Buffer.add_char buf '\006';
      add_time buf time;
      add_int32 buf node;
      add_int32 buf depth
  | Link_state { time; a; b; up } ->
      Buffer.add_char buf '\007';
      add_time buf time;
      add_int32 buf a;
      add_int32 buf b;
      add_bool buf up
  | Msg_dropped { time; a; b; reason } ->
      Buffer.add_char buf '\008';
      add_time buf time;
      add_int32 buf a;
      add_int32 buf b;
      Buffer.add_char buf (reason_byte reason)
  | Loop_detected { time; members; trigger; prefix } ->
      Buffer.add_char buf '\009';
      add_time buf time;
      add_members buf members;
      add_int32 buf trigger;
      add_opt_int buf prefix
  | Loop_resolved { time; members; prefix } ->
      Buffer.add_char buf '\010';
      add_time buf time;
      add_members buf members;
      add_opt_int buf prefix

let encode buf ev =
  let scratch = Domain.DLS.get scratch_key in
  Buffer.clear scratch;
  add_payload scratch ev;
  add_varint buf (Buffer.length scratch);
  Buffer.add_buffer buf scratch

let encode_string ev =
  let buf = Buffer.create 64 in
  encode buf ev;
  Buffer.contents buf

(* -- decoding -------------------------------------------------------- *)

let need s pos n =
  if pos + n > String.length s then
    corrupt "truncated frame at byte %d (need %d more)" pos n

let read_varint s start =
  let v = ref 0 and shift = ref 0 and pos = ref start and fin = ref false in
  while not !fin do
    need s !pos 1;
    if !shift > 56 then corrupt "varint too long at byte %d" !pos;
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then fin := true
  done;
  if !v < 0 then corrupt "varint overflows at byte %d" start;
  (!v, !pos)

let read_int32 s pos =
  need s pos 4;
  (Int32.to_int (String.get_int32_le s pos), pos + 4)

let read_time s pos =
  need s pos 8;
  (Int64.float_of_bits (String.get_int64_le s pos), pos + 8)

let read_bool s pos =
  need s pos 1;
  match s.[pos] with
  | '\000' -> (false, pos + 1)
  | '\001' -> (true, pos + 1)
  | c -> corrupt "bad bool byte 0x%02x at byte %d" (Char.code c) pos

let read_opt_int s pos =
  need s pos 1;
  match s.[pos] with
  | '\000' -> (None, pos + 1)
  | '\001' ->
      let n, pos = read_int32 s (pos + 1) in
      (Some n, pos)
  | c -> corrupt "bad option byte 0x%02x at byte %d" (Char.code c) pos

let read_members s pos =
  let count, pos = read_varint s pos in
  let pos = ref pos in
  let members =
    List.init count (fun _ ->
        let m, p = read_int32 s !pos in
        pos := p;
        m)
  in
  (members, !pos)

let read_reason s pos : Event.drop_reason * int =
  need s pos 1;
  match s.[pos] with
  | '\000' -> (Event.Down, pos + 1)
  | '\001' -> (Event.Loss, pos + 1)
  | '\002' -> (Event.Stale_epoch, pos + 1)
  | c -> corrupt "bad drop-reason byte 0x%02x at byte %d" (Char.code c) pos

let decode_payload s pos limit : Event.t =
  need s pos 1;
  let tag = Char.code s.[pos] in
  let pos = pos + 1 in
  let ev, stop =
    match tag with
    | 0 ->
        let time, pos = read_time s pos in
        let src, pos = read_int32 s pos in
        let dst, pos = read_int32 s pos in
        let withdraw, pos = read_bool s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Update_sent { time; src; dst; withdraw; prefix }, pos)
    | 1 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let from, pos = read_int32 s pos in
        let withdraw, pos = read_bool s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Update_recv { time; node; from; withdraw; prefix }, pos)
    | 2 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Originate { time; node; prefix }, pos)
    | 3 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Withdrawal { time; node; prefix }, pos)
    | 4 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let next_hop, pos = read_opt_int s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Fib_change { time; node; next_hop; prefix }, pos)
    | 5 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let peer, pos = read_int32 s pos in
        (Event.Mrai_fire { time; node; peer }, pos)
    | 6 ->
        let time, pos = read_time s pos in
        let node, pos = read_int32 s pos in
        let depth, pos = read_int32 s pos in
        (Event.Node_busy { time; node; depth }, pos)
    | 7 ->
        let time, pos = read_time s pos in
        let a, pos = read_int32 s pos in
        let b, pos = read_int32 s pos in
        let up, pos = read_bool s pos in
        (Event.Link_state { time; a; b; up }, pos)
    | 8 ->
        let time, pos = read_time s pos in
        let a, pos = read_int32 s pos in
        let b, pos = read_int32 s pos in
        let reason, pos = read_reason s pos in
        (Event.Msg_dropped { time; a; b; reason }, pos)
    | 9 ->
        let time, pos = read_time s pos in
        let members, pos = read_members s pos in
        let trigger, pos = read_int32 s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Loop_detected { time; members; trigger; prefix }, pos)
    | 10 ->
        let time, pos = read_time s pos in
        let members, pos = read_members s pos in
        let prefix, pos = read_opt_int s pos in
        (Event.Loop_resolved { time; members; prefix }, pos)
    | t -> corrupt "unknown event tag %d" t
  in
  if stop <> limit then
    corrupt "frame length mismatch: payload ends at %d, frame at %d" stop limit;
  ev

let decode s ~pos =
  let len, payload_start = read_varint s pos in
  need s payload_start len;
  let stop = payload_start + len in
  (decode_payload s payload_start stop, stop)

let check_header s pos =
  if pos + String.length header > String.length s then
    corrupt "missing stream header";
  if String.sub s pos (String.length magic) <> magic then
    corrupt "bad magic (not a binary trace)";
  let v = Char.code s.[pos + String.length magic] in
  if v <> version then
    raise (Unsupported_version { found = v; expected = version });
  pos + String.length header

let decode_all s =
  let pos = ref (check_header s 0) in
  let events = ref [] in
  while !pos < String.length s do
    let ev, next = decode s ~pos:!pos in
    events := ev :: !events;
    pos := next
  done;
  List.rev !events

(* -- channel reader -------------------------------------------------- *)

type reader = { ic : in_channel; mutable frame : Bytes.t }

let open_reader ic =
  let hdr = Bytes.create (String.length header) in
  (try really_input ic hdr 0 (Bytes.length hdr)
   with End_of_file -> corrupt "missing stream header");
  ignore (check_header (Bytes.to_string hdr) 0);
  { ic; frame = Bytes.create 256 }

(* [first] is the frame's first length byte, already read *)
let input_length ic first =
  let v = ref (first land 0x7f) and shift = ref 7 and b = ref first in
  while !b >= 0x80 do
    if !shift > 56 then corrupt "varint too long";
    (b :=
       try input_byte ic with End_of_file -> corrupt "truncated frame length");
    v := !v lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  if !v < 0 then corrupt "frame length overflows";
  !v

(* The frame buffer grows only as payload bytes arrive, so a corrupt
   length prefix allocates no more than the stream actually holds. *)
let input r =
  match input_byte r.ic with
  | exception End_of_file -> None
  | first ->
      let len = input_length r.ic first in
      let filled = ref 0 in
      while !filled < len do
        if !filled = Bytes.length r.frame then
          r.frame <- Bytes.extend r.frame 0 (min (len - !filled) !filled);
        let want = min (len - !filled) (Bytes.length r.frame - !filled) in
        match Stdlib.input r.ic r.frame !filled want with
        | 0 -> corrupt "truncated frame (wanted %d bytes, got %d)" len !filled
        | n -> filled := !filled + n
      done;
      let s = Bytes.sub_string r.frame 0 len in
      Some (decode_payload s 0 len)

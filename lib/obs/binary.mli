(** Length-prefixed binary codec for trace events — the hot-path trace
    format.  JSONL stays the golden/oracle format; decoding a binary
    stream and re-serializing with {!Event.to_json} reproduces the
    JSONL byte stream exactly.

    Streams start with a 9-byte header ({!header}: magic ["BGPTRACE"]
    plus one format-version byte) followed by frames, one per event:
    an unsigned-LEB128 payload length, then a tag byte and fixed-width
    little-endian fields.  See DESIGN.md 14 for the full layout.  The
    encoding is byte-stable across runs and platforms; the churn digest
    chain is computed over these frames. *)

val version : int
(** Current format version (encoded in {!header}).  Version 2 added a
    trailing optional prefix-id field to the per-prefix events. *)

val header : string
(** Stream header bytes: magic + version. *)

exception Unsupported_version of { found : int; expected : int }
(** Raised (instead of [Failure]) when a stream's header names a
    different format version — e.g. a v1 trace read by a v2 build.  A
    registered printer renders an actionable message. *)

val encode : Buffer.t -> Event.t -> unit
(** Append one frame (length prefix + payload) to [buf].  Does not
    write the stream header.  Amortizes to zero allocation per call. *)

val encode_string : Event.t -> string
(** One frame as a fresh string (convenience for tests). *)

val decode : string -> pos:int -> Event.t * int
(** Decode the frame starting at [pos]; return the event and the
    position just past the frame.  Raises [Failure] on corruption. *)

val decode_all : string -> Event.t list
(** Decode a complete stream (header + frames).  Raises [Failure] on a
    bad header or corrupt frame, {!Unsupported_version} on a version
    mismatch. *)

type reader
(** Incremental decoder over an input channel. *)

val open_reader : in_channel -> reader
(** Read and validate the stream header.  Raises [Failure] if the
    channel does not start with a binary-trace header,
    {!Unsupported_version} on a version mismatch. *)

val input : reader -> Event.t option
(** Next event, or [None] at a clean end of stream.  Raises [Failure]
    on a truncated or corrupt frame, including a negative or oversized
    length prefix; the frame buffer grows only as bytes arrive, so
    allocation stays bounded by the bytes actually in the stream. *)

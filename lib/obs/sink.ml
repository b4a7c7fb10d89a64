type t = { emit : Event.t -> unit; close : unit -> unit }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let fn f = { emit = f; close = (fun () -> ()) }

let memory () =
  let buf = ref [] in
  let sink = { emit = (fun ev -> buf := ev :: !buf); close = (fun () -> ()) } in
  let contents () = List.rev !buf in
  (sink, contents)

let ring ?counters ~capacity () =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  let slots = Array.make capacity None in
  let next = ref 0 in
  let emit ev =
    (if !next >= capacity then
       match counters with
       | Some c -> Counters.incr_trace_dropped c
       | None -> ());
    slots.(!next mod capacity) <- Some ev;
    incr next
  in
  let contents () =
    let n = !next in
    let len = min n capacity in
    let start = n - len in
    List.init len (fun i ->
        match slots.((start + i) mod capacity) with
        | Some ev -> ev
        | None -> assert false)
  in
  ({ emit; close = (fun () -> ()) }, contents)

let jsonl_file path =
  let oc = open_out path in
  {
    emit =
      (fun ev ->
        output_string oc (Event.to_json ev);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

(* Frames accumulate in a reused buffer and hit the channel in ~64KB
   writes, so the hot path does no per-event allocation or syscall. *)
let binary_flush_threshold = 64 * 1024

let binary_file path =
  let oc = open_out_bin path in
  let buf = Buffer.create (binary_flush_threshold + 512) in
  Buffer.add_string buf Binary.header;
  let flush_buf () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  {
    emit =
      (fun ev ->
        Binary.encode buf ev;
        if Buffer.length buf >= binary_flush_threshold then flush_buf ());
    close =
      (fun () ->
        flush_buf ();
        close_out oc);
  }

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    close =
      (fun () ->
        a.close ();
        b.close ());
  }

let emit t ev = t.emit ev
let close t = t.close ()

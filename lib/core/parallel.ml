let attempt f = try Ok (f ()) with exn -> Error exn

(* Each thunk index is claimed once from [next] and its outcome written
   to its own slot; [Domain.join] publishes the slots the other domains
   wrote before they are read.  With [min jobs n <= 1] no domain starts
   and the caller claims every index in order. *)
let run ~jobs thunks =
  if jobs < 0 then invalid_arg "Parallel.run: negative jobs";
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      slots.(i) <- Some (attempt tasks.(i));
      work ()
    end
  in
  let domains = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !domains)
    (fun () ->
      for _ = 2 to Stdlib.min jobs n do
        domains := Domain.spawn work :: !domains
      done;
      work ());
  Array.to_list (Array.map Option.get slots)

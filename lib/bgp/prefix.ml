type t = { origin : int; index : int }

let make ?(index = 0) ~origin () =
  if origin < 0 then invalid_arg "Prefix.make: negative origin";
  if index < 0 then invalid_arg "Prefix.make: negative index";
  { origin; index }

let origin t = t.origin

let compare = Stdlib.compare

let equal a b = a = b

let hash = Hashtbl.hash

let pp fmt t =
  if t.index = 0 then Format.fprintf fmt "p%d" t.origin
  else Format.fprintf fmt "p%d.%d" t.origin t.index

(* Dense prefix-id interning, mirroring the As_path.Table arena: a
   simulation shares one table across all speakers so a prefix has one
   id everywhere — ids index each speaker's destinations and key its
   MRAI limiters, and appear as the "pfx" field of per-prefix trace
   events. *)
module Table = struct
  type prefix = t

  type nonrec t = {
    ids : (prefix, int) Hashtbl.t;
    mutable rev : prefix array;  (* id -> prefix; length >= size *)
    mutable size : int;
  }

  let dummy = { origin = 0; index = 0 }

  let create ?(capacity = 16) () =
    if capacity <= 0 then invalid_arg "Prefix.Table.create: capacity <= 0";
    { ids = Hashtbl.create capacity; rev = Array.make capacity dummy; size = 0 }

  let size t = t.size

  let id t p =
    match Hashtbl.find t.ids p with
    | i -> i
    | exception Not_found ->
        let i = t.size in
        Hashtbl.add t.ids p i;
        if i >= Array.length t.rev then begin
          let bigger = Array.make (2 * Array.length t.rev) dummy in
          Array.blit t.rev 0 bigger 0 i;
          t.rev <- bigger
        end;
        t.rev.(i) <- p;
        t.size <- i + 1;
        i

  let find t p = Hashtbl.find_opt t.ids p

  let prefix_of t i =
    if i < 0 || i >= t.size then
      invalid_arg (Printf.sprintf "Prefix.Table.prefix_of: unknown id %d" i);
    t.rev.(i)

  let iter f t =
    for i = 0 to t.size - 1 do
      f i t.rev.(i)
    done
end

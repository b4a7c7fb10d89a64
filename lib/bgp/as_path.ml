(* Interned AS paths (DESIGN.md §12).

   A handle owns its immutable array plus everything the hot paths ask
   of it precomputed: a structural hash, a 63-bit membership signature
   and an arena-local id.  Hash-consing makes same-arena equality
   physical; simulations run one arena each, so the Loc-RIB/Adj-RIB-Out
   comparisons in the speaker are pointer tests. *)

type t = {
  pid : int;        (* arena-local id; 0 is reserved for [empty] *)
  arena : int;      (* owning arena uid; 0 only for the shared [empty] *)
  arr : int array;  (* the ASes, nearest first; never mutated *)
  phash : int;      (* structural hash, arena-independent *)
  mask : int;       (* bit (v mod 63) set for every member v *)
}

let array_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

let hash_arr arr =
  Array.fold_left (fun h v -> ((h * 31) + v) land max_int) 17 arr

let mask_bit v = 1 lsl ((v land max_int) mod 63)

let mask_arr arr = Array.fold_left (fun m v -> m lor mask_bit v) 0 arr

let empty = { pid = 0; arena = 0; arr = [||]; phash = hash_arr [||]; mask = 0 }

(* Never interned: its arena (-1) matches no arena, and its hash (-1)
   no [hash_arr] result, so [equal] holds only against itself. *)
let absent = { pid = -1; arena = -1; arr = [||]; phash = -1; mask = 0 }

module Table = struct
  module H = Hashtbl.Make (struct
    type t = int array

    let equal = array_equal

    let hash = hash_arr
  end)

  type nonrec t = {
    uid : int;
    nodes : t H.t;
    extends : (int, t) Hashtbl.t;
        (* (parent id lsl 20) lor new-head -> child; int-keyed so the
           per-decision memo probe allocates no tuple *)
    mutable next_id : int;
    mutable words : int;
  }

  (* Arena uids are global so cross-arena handles never alias; atomic
     because sweep workers create arenas concurrently. *)
  let next_uid = Atomic.make 1

  let create () =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      nodes = H.create 256;
      extends = Hashtbl.create 256;
      next_id = 1;
      words = 0;
    }

  let size t = t.next_id - 1

  let words t = t.words

  (* [arr] must be duplicate-free and unaliased (the callers below
     build a fresh array per miss). *)
  let intern t arr =
    if Array.length arr = 0 then empty
    else
      match H.find_opt t.nodes arr with
      | Some p -> p
      | None ->
          let p =
            {
              pid = t.next_id;
              arena = t.uid;
              arr;
              phash = hash_arr arr;
              mask = mask_arr arr;
            }
          in
          t.next_id <- t.next_id + 1;
          (* array (len + header) + handle record + two table entries,
             all approximate — an occupancy gauge, not an accountant *)
          t.words <- t.words + Array.length arr + 12;
          H.add t.nodes arr p;
          p
end

let default_key = Domain.DLS.new_key (fun () -> Table.create ())

let default_table () = Domain.DLS.get default_key

let the_table = function Some t -> t | None -> default_table ()

let length t = Array.length t.arr

let is_empty t = t == empty || Array.length t.arr = 0

let contains t v =
  t.mask land mask_bit v <> 0
  &&
  let n = Array.length t.arr in
  let rec go i = i < n && (Array.unsafe_get t.arr i = v || go (i + 1)) in
  go 0

(* Duplicate detection on the materialized array: a single quadratic
   scan beats the former per-element Hashtbl (whose
   [Hashtbl.create (List.length l)] sizing walked the list a second
   time) for every path length a simulation produces.  Returns the
   offending AS, if any. *)
let find_dup arr =
  let n = Array.length arr in
  let rec outer i =
    if i >= n then None
    else
      let v = Array.unsafe_get arr i in
      let rec inner j =
        if j >= n then outer (i + 1)
        else if Array.unsafe_get arr j = v then Some v
        else inner (j + 1)
      in
      inner (i + 1)
  in
  outer 0

let of_list ?table l =
  match l with
  | [] -> empty
  | l -> (
      let arr = Array.of_list l in
      match find_dup arr with
      | Some v ->
          invalid_arg (Printf.sprintf "As_path.of_list: repeated AS %d" v)
      | None -> Table.intern (the_table table) arr)

let to_list t = Array.to_list t.arr

let head t = if Array.length t.arr = 0 then None else Some t.arr.(0)

let id t = t.pid

let hash t = t.phash

let extend_slow ~table ~memo ~key v t =
  if contains t v then
    invalid_arg (Printf.sprintf "As_path.prepend: AS %d already in path" v);
  let n = Array.length t.arr in
  let arr = Array.make (n + 1) v in
  Array.blit t.arr 0 arr 1 n;
  let child = Table.intern table arr in
  if memo then Hashtbl.add table.Table.extends key child;
  child

let extend ~table v t =
  (* the memo key (parent id, v) is only unambiguous for parents of
     this arena (or the shared empty, id 0 everywhere); the packing
     needs [v] to fit 20 bits, which every simulated AS number does —
     out-of-range ASes just skip the memo *)
  let memo =
    (t.arena = table.Table.uid || t.pid = 0) && v >= 0 && v < 0x10_0000
  in
  let key = (t.pid lsl 20) lor (v land 0xf_ffff) in
  if memo then
    match Hashtbl.find table.Table.extends key with
    | child -> child
    | exception Not_found -> extend_slow ~table ~memo ~key v t
  else extend_slow ~table ~memo ~key v t

let prepend ?table v t = extend ~table:(the_table table) v t

let reintern ~table t =
  if Array.length t.arr = 0 then empty
  else if t.arena = table.Table.uid then t
  else
    (* intern requires an unaliased array: the source handle keeps
       owning [t.arr] *)
    Table.intern table (Array.copy t.arr)

let suffix_from ?table t u =
  if t.mask land mask_bit u = 0 then None
  else
    let n = Array.length t.arr in
    let rec find i = if i >= n then -1 else if t.arr.(i) = u then i else find (i + 1) in
    match find 0 with
    | -1 -> None
    | 0 -> Some t
    | i -> Some (Table.intern (the_table table) (Array.sub t.arr i (n - i)))

let compare_lex a b =
  if a == b then 0
  else
    let na = Array.length a.arr and nb = Array.length b.arr in
    let n = if na < nb then na else nb in
    let rec go i =
      if i >= n then Stdlib.compare na nb
      else
        let c = Stdlib.compare (Array.unsafe_get a.arr i) (Array.unsafe_get b.arr i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let compare a b =
  if a == b then 0
  else
    let c = Stdlib.compare (Array.length a.arr) (Array.length b.arr) in
    if c <> 0 then c else compare_lex a b

let equal a b =
  a == b
  (* same arena + hash-consing => distinct handles are distinct paths *)
  || (a.arena <> b.arena && a.phash = b.phash && array_equal a.arr b.arr)

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat " " (List.map string_of_int (Array.to_list t.arr)))

let to_string t = Format.asprintf "%a" pp t

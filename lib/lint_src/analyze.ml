(* The typedtree pass behind bgpsim-lint (DESIGN.md §16).

   Input is a .cmt file produced by `dune build @check`: the typer's
   own view of the module, so every identifier is resolved (no
   text-level guessing about what [compare] or [Hashtbl.iter] means)
   and every use site carries its instantiated type (so D002 can see
   that a polymorphic compare was applied *at* [Prefix.t]).

   Scope and honesty notes:
   - D002 matches types that syntactically mention an interned-handle
     constructor in the instantiated type.  A handle hidden behind an
     abstract wrapper type is not seen; wrappers of handles should
     export their own compare/equal, which also satisfies the rule.
   - M001 uses a guard heuristic: a Marshal/input_value read passes if
     the same toplevel definition references an identifier or record
     field whose name contains "version", "magic" or "header" at an
     earlier source position.  That is exactly the shape of
     Churn.Checkpoint.read; anything else must argue its safety in a
     suppression.
   - R001's type test covers the stdlib mutable containers (ref,
     array, bytes, Hashtbl/Buffer/Queue/Stack, Random.State) plus
     records with mutable fields declared in the same unit.  Local
     record types are matched by identifier stamp, not name, so an
     inner module's mutable [t] never taints an outer immutable [t];
     the flip side is that a mutable record referenced only through a
     qualified path ([Table.t]) is not seen.  [Domain.DLS] keys and
     [Atomic.t] are deliberately not flagged: they are the sanctioned
     forms of domain-shared state. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* --- name normalization --- *)

(* "Bgp__As_path" -> ["Bgp"; "As_path"]; single underscores survive. *)
let split_on_dunder s =
  let n = String.length s in
  let parts = ref [] and start = ref 0 and i = ref 0 in
  while !i + 1 < n do
    if s.[!i] = '_' && s.[!i + 1] = '_' then begin
      parts := String.sub s !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  parts := String.sub s !start (n - !start) :: !parts;
  List.rev (List.filter (fun p -> p <> "") !parts)

let norm_segments name =
  let segs =
    String.split_on_char '.' name |> List.concat_map split_on_dunder
  in
  match segs with "Stdlib" :: (_ :: _ as rest) -> rest | segs -> segs

let is_stdlib name =
  String.length name >= 7 && String.sub name 0 7 = "Stdlib."

let last_two segs =
  match List.rev segs with
  | t :: m :: _ -> m ^ "." ^ t
  | [ one ] -> one
  | [] -> ""

(* --- rule predicates over resolved paths --- *)

let is_hashtbl_iter_fold segs =
  match segs with [ "Hashtbl"; ("iter" | "fold") ] -> true | _ -> false

let poly_ops = [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let is_poly_compare segs =
  match segs with
  | [ op ] -> List.mem op poly_ops
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] -> true
  | _ -> false

(* The equality/three-way subset that D004 cares about; orderings
   (<, <=) on floats are deterministic and allowed. *)
let is_eq_or_cmp segs =
  match segs with [ ("compare" | "=" | "<>") ] -> true | _ -> false

let is_float_eq_or_cmp segs =
  match segs with [ "Float"; ("equal" | "compare") ] -> true | _ -> false

let is_random segs = match segs with "Random" :: _ -> true | _ -> false

let is_marshal_read ~raw segs =
  match segs with
  | [ "Marshal"; ("from_channel" | "from_bytes" | "from_string") ] -> true
  | [ "input_value" ] -> is_stdlib raw
  | _ -> false

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let is_guard_name name =
  let l = String.lowercase_ascii name in
  contains_sub ~sub:"version" l
  || contains_sub ~sub:"magic" l
  || contains_sub ~sub:"header" l

(* --- type inspection --- *)

let interned_handles = [ "As_path.t"; "Prefix.t"; "Event.t" ]

let path_is_handle ~unit_segs p =
  let segs = norm_segments (Path.name p) in
  match segs with
  | [ "t" ] -> (
      (* a local [t]: qualify with the defining unit's own name *)
      match List.rev unit_segs with
      | m :: _ -> List.mem (m ^ ".t") interned_handles
      | [] -> false)
  | _ -> List.mem (last_two segs) interned_handles

let type_mentions_handle ~unit_segs ty =
  let seen = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if Hashtbl.mem seen id then false
    else begin
      Hashtbl.add seen id ();
      match Types.get_desc ty with
      | Tconstr (p, args, _) ->
          path_is_handle ~unit_segs p || List.exists go args
      | Ttuple l -> List.exists go l
      | Tarrow (_, a, b, _) -> go a || go b
      | Tpoly (t, ts) -> go t || List.exists go ts
      | _ -> false
    end
  in
  go ty

let rec first_arg_type ty =
  match Types.get_desc ty with
  | Tarrow (_, a, _, _) -> Some a
  | Tpoly (t, _) -> first_arg_type t
  | _ -> None

let is_float_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.name p = "float"
  | _ -> false

(* A small deterministic type printer for witnesses (Printtyp needs an
   environment we do not have when reading foreign cmts). *)
let type_to_string ty =
  let rec go depth ty =
    if depth > 3 then "_"
    else
      match Types.get_desc ty with
      | Tconstr (p, [], _) -> last_two (norm_segments (Path.name p))
      | Tconstr (p, args, _) ->
          let args = List.map (go (depth + 1)) args in
          Printf.sprintf "(%s) %s" (String.concat ", " args)
            (last_two (norm_segments (Path.name p)))
      | Ttuple l -> String.concat " * " (List.map (go (depth + 1)) l)
      | Tarrow (_, a, b, _) -> go (depth + 1) a ^ " -> " ^ go (depth + 1) b
      | Tvar _ -> "'_"
      | _ -> "_"
  in
  go 0 ty

(* --- the pass --- *)

type ctx = {
  unit_segs : string list;
  fallback_file : string;
  reachable : bool;
  exempt_rng : bool;
  mutable findings : Finding.t list;
  mutable local_mutable_types : Ident.t list;
  mutable guards : (int * int) list;
      (* positions of version-ish references in the current toplevel item *)
  mutable marshal_sites : ((int * int) * string * string) list;
      (* position, file, witness — judged when the item closes *)
}

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let loc_file ctx (loc : Location.t) =
  let f = loc.loc_start.pos_fname in
  if f = "" then ctx.fallback_file else f

let add_finding ctx rule loc witness =
  let line, col = loc_pos loc in
  ctx.findings <-
    Finding.make ~rule ~file:(loc_file ctx loc) ~line ~col ~witness
    :: ctx.findings

let on_ident ctx (e : Typedtree.expression) path =
  let raw = Path.name path in
  let segs = norm_segments raw in
  let stdlib = is_stdlib raw in
  let witness () = Printf.sprintf "%s : %s" raw (type_to_string e.exp_type) in
  if stdlib && is_hashtbl_iter_fold segs then
    add_finding ctx Rule.D001 e.exp_loc (witness ());
  if stdlib && is_poly_compare segs then begin
    if type_mentions_handle ~unit_segs:ctx.unit_segs e.exp_type then
      add_finding ctx Rule.D002 e.exp_loc (witness ());
    if
      is_eq_or_cmp segs
      && (match first_arg_type e.exp_type with
         | Some a -> is_float_type a
         | None -> false)
    then add_finding ctx Rule.D004 e.exp_loc (witness ())
  end;
  if stdlib && is_float_eq_or_cmp segs then
    add_finding ctx Rule.D004 e.exp_loc (witness ());
  if stdlib && is_random segs && not ctx.exempt_rng then
    add_finding ctx Rule.D003 e.exp_loc (witness ());
  if is_marshal_read ~raw segs then
    ctx.marshal_sites <-
      (loc_pos e.exp_loc, loc_file ctx e.exp_loc, witness ())
      :: ctx.marshal_sites;
  match List.rev segs with
  | name :: _ when is_guard_name name ->
      ctx.guards <- loc_pos e.exp_loc :: ctx.guards
  | _ -> ()

let on_field ctx (e : Typedtree.expression) (ld : Types.label_description) =
  if is_guard_name ld.lbl_name then ctx.guards <- loc_pos e.exp_loc :: ctx.guards

let pos_before (l1, c1) (l2, c2) = l1 < l2 || (l1 = l2 && c1 <= c2)

let flush_marshal ctx =
  List.iter
    (fun (pos, file, witness) ->
      let guarded = List.exists (fun g -> pos_before g pos) ctx.guards in
      if not guarded then
        let line, col = pos in
        ctx.findings <-
          Finding.make ~rule:Rule.M001 ~file ~line ~col ~witness
          :: ctx.findings)
    ctx.marshal_sites

let iterator ctx =
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> on_ident ctx e path
    | Texp_field (_, _, ld) -> on_field ctx e ld
    | _ -> ());
    default_iterator.expr sub e
  in
  let structure_item sub (item : Typedtree.structure_item) =
    let saved_guards = ctx.guards and saved_marshal = ctx.marshal_sites in
    ctx.guards <- [];
    ctx.marshal_sites <- [];
    default_iterator.structure_item sub item;
    flush_marshal ctx;
    ctx.guards <- saved_guards;
    ctx.marshal_sites <- saved_marshal
  in
  { default_iterator with expr; structure_item }

(* --- R001: module-level mutable bindings --- *)

let mutable_container_modules =
  [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Weak"; "Dynarray" ]

let rec type_is_mutable ctx depth ty =
  depth <= 5
  &&
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
      let segs = norm_segments (Path.name p) in
      match segs with
      | [ "ref" ] | [ "array" ] | [ "bytes" ] -> true
      | [ "Random"; "State"; "t" ] -> true
      | [ m; "t" ] -> List.mem m mutable_container_modules
      | [ _ ] -> (
          match p with
          | Path.Pident id ->
              List.exists (Ident.same id) ctx.local_mutable_types
          | _ -> false)
      | _ -> false)
  | Ttuple l -> List.exists (type_is_mutable ctx (depth + 1)) l
  | _ -> false

let check_toplevel_binding ctx (vb : Typedtree.value_binding) =
  if ctx.reachable && type_is_mutable ctx 0 vb.vb_pat.pat_type then
    let name =
      match Typedtree.pat_bound_idents vb.vb_pat with
      | id :: _ -> Ident.name id
      | [] -> "_"
    in
    add_finding ctx Rule.R001 vb.vb_pat.pat_loc
      (Printf.sprintf "toplevel mutable binding %s : %s" name
         (type_to_string vb.vb_pat.pat_type))

let rec check_module_level ctx (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
          List.iter
            (fun (d : Typedtree.type_declaration) ->
              match d.typ_type.Types.type_kind with
              | Type_record (lds, _)
                when List.exists
                       (fun (l : Types.label_declaration) ->
                         l.ld_mutable = Asttypes.Mutable)
                       lds ->
                  ctx.local_mutable_types <-
                    d.typ_id :: ctx.local_mutable_types
              | _ -> ())
            decls
      | _ -> ())
    str.str_items;
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (check_toplevel_binding ctx) vbs
      | Tstr_module mb -> check_module_binding ctx mb
      | Tstr_recmodule mbs -> List.iter (check_module_binding ctx) mbs
      | _ -> ())
    str.str_items

and check_module_binding ctx (mb : Typedtree.module_binding) =
  match mb.mb_expr.mod_desc with
  | Tmod_structure s -> check_module_level ctx s
  | Tmod_constraint (me, _, _, _) -> (
      match me.mod_desc with
      | Tmod_structure s -> check_module_level ctx s
      | _ -> ())
  | _ -> ()

(* --- entry points --- *)

let analyze_structure ~unit_name ~source_file ~worker_reachable str =
  let unit_segs = split_on_dunder unit_name in
  let exempt_rng =
    match List.rev unit_segs with "Rng" :: _ -> true | _ -> false
  in
  let ctx =
    {
      unit_segs;
      fallback_file = source_file;
      reachable = worker_reachable;
      exempt_rng;
      findings = [];
      local_mutable_types = [];
      guards = [];
      marshal_sites = [];
    }
  in
  let it = iterator ctx in
  it.structure it str;
  check_module_level ctx str;
  List.sort_uniq Finding.compare ctx.findings

let analyze_cmt ?(worker_reachable = true) path =
  match Cmt_format.read_cmt path with
  | exception e ->
      Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string e))
  | cmt -> (
      let source = Option.value cmt.cmt_sourcefile ~default:"" in
      match cmt.cmt_annots with
      | Implementation str ->
          Ok
            ( cmt.cmt_modname,
              analyze_structure ~unit_name:cmt.cmt_modname
                ~source_file:source ~worker_reachable str )
      | _ -> Ok (cmt.cmt_modname, []))

let imports_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception e ->
      Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string e))
  | cmt -> Ok (cmt.cmt_modname, List.map fst cmt.cmt_imports)

let norm_unit_last name =
  match List.rev (split_on_dunder name) with seg :: _ -> seg | [] -> name

let worker_reachable_set ~imports ~roots =
  let root_names = SSet.of_list roots in
  let is_root_unit u = SSet.mem (norm_unit_last u) root_names in
  let dep_map =
    List.fold_left (fun m (u, deps) -> SMap.add u deps m) SMap.empty imports
  in
  let seeds =
    List.filter_map
      (fun (u, deps) ->
        if is_root_unit u || List.exists is_root_unit deps then Some u
        else None)
      imports
  in
  let rec closure visited = function
    | [] -> visited
    | u :: rest ->
        if SSet.mem u visited then closure visited rest
        else
          let visited = SSet.add u visited in
          let deps =
            match SMap.find_opt u dep_map with Some d -> d | None -> []
          in
          closure visited (deps @ rest)
  in
  closure SSet.empty seeds

let default_roots = [ "Parallel"; "Sweep" ]

(* --- the whole tree --- *)

let rec find_cmts dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then find_cmts path acc
          else if Filename.check_suffix name ".cmt" then path :: acc
          else acc)
        acc entries

let tree_cmts root =
  List.concat_map
    (fun sub -> List.rev (find_cmts (Filename.concat root sub) []))
    [ "lib"; "bin" ]

let analyze_tree cmts =
  let units, import_errors =
    List.fold_left
      (fun (acc, errs) path ->
        match imports_of_cmt path with
        | Ok (unit_name, deps) -> ((path, unit_name, deps) :: acc, errs)
        | Error e -> (acc, e :: errs))
      ([], []) cmts
  in
  let reachable =
    worker_reachable_set
      ~imports:(List.map (fun (_, u, d) -> (u, d)) units)
      ~roots:default_roots
  in
  let findings, analyze_errors =
    List.fold_left
      (fun (fs, errs) (path, unit_name, _) ->
        let worker_reachable = SSet.mem unit_name reachable in
        match analyze_cmt ~worker_reachable path with
        | Ok (_, f) -> (f @ fs, errs)
        | Error e -> (fs, e :: errs))
      ([], []) (List.rev units)
  in
  (findings, List.rev import_errors @ List.rev analyze_errors)

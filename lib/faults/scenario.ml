type link = int * int

type action =
  | Link_fail of link
  | Link_recover of link
  | Node_crash of int
  | Node_restart of int
  | Session_reset of link

type step = { at : float; action : action }

type spec =
  | At of float * action
  | Flap_storm of { link : link; start : float; period : float; count : int }
  | Correlated_failure of {
      at : float;
      links : link list;
      recover_after : float option;
    }
  | Random_link_failures of {
      count : int;
      window : float;
      recover_after : float option;
    }

type t = {
  name : string option;
  specs : spec list;
  msg_loss : float;
  msg_dup : float;
}

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Scenario: %s outside [0, 1]" what)

let make ?name ?(msg_loss = 0.) ?(msg_dup = 0.) specs =
  check_prob "msg_loss" msg_loss;
  check_prob "msg_dup" msg_dup;
  { name; specs; msg_loss; msg_dup }

(* --- static resolution (shared with Analysis.Lint) --- *)

(* A storm compiles to two steps per cycle; the cap keeps [compile]'s
   allocation bounded by the input. *)
let max_storm_count = 100_000

(* Every check [validate] enforces, collected as messages instead of
   raised one at a time, so the static linter can report all of a
   scenario's problems in one pass and [validate] stays a thin
   raise-on-first wrapper. *)
let resolution_issues t ~graph =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let check_prob what p =
    if not (p >= 0. && p <= 1.) then
      issue "Scenario: %s outside [0, 1]" what
  in
  let check_time what at =
    (* bgpsim-lint: allow D004 — infinity is an exact sentinel in input validation *)
    if Float.is_nan at || at < 0. || at = infinity then
      issue "Scenario: %s time %g invalid" what at
  in
  let n = Topo.Graph.n_nodes graph in
  let check_node what v =
    if v < 0 || v >= n then issue "Scenario: %s node %d out of range" what v
  in
  let check_link (a, b) =
    if a < 0 || a >= n || b < 0 || b >= n then
      issue "Scenario: link (%d,%d) has an endpoint out of range" a b
    else if not (Topo.Graph.has_edge graph a b) then
      issue "Scenario: link (%d,%d) is not an edge" a b
  in
  check_prob "msg_loss" t.msg_loss;
  check_prob "msg_dup" t.msg_dup;
  List.iter
    (function
      | At (at, action) -> (
          check_time "step" at;
          match action with
          | Link_fail l | Link_recover l | Session_reset l -> check_link l
          | Node_crash v | Node_restart v -> check_node "step" v)
      | Flap_storm { link; start; period; count } ->
          check_time "storm start" start;
          check_link link;
          (* bgpsim-lint: allow D004 — infinity is an exact sentinel in input validation *)
          if period <= 0. || Float.is_nan period || period = infinity then
            issue "Scenario: storm period must be positive and finite";
          if count <= 0 then issue "Scenario: storm count must be positive"
          else if count > max_storm_count then
            issue "Scenario: storm count %d exceeds the cap of %d" count
              max_storm_count
      | Correlated_failure { at; links; recover_after } ->
          check_time "correlated failure" at;
          if links = [] then issue "Scenario: correlated failure with no links";
          List.iter check_link links;
          Option.iter
            (fun r ->
              if r <= 0. then issue "Scenario: recover_after must be positive")
            recover_after
      | Random_link_failures { count; window; recover_after } ->
          if count <= 0 then
            issue "Scenario: random failure count must be positive";
          if count > Topo.Graph.n_edges graph then
            issue "Scenario: more random failures than edges";
          (* bgpsim-lint: allow D004 — infinity is an exact sentinel in input validation *)
          if window <= 0. || Float.is_nan window || window = infinity then
            issue "Scenario: random failure window must be positive";
          Option.iter
            (fun r ->
              if r <= 0. then issue "Scenario: recover_after must be positive")
            recover_after)
    t.specs;
  List.rev !issues

let validate t ~graph =
  match resolution_issues t ~graph with
  | [] -> ()
  | first :: _ -> invalid_arg first

(* --- compilation --- *)

(* The deterministic expansion of one clause; [None] for clauses whose
   expansion draws from the run RNG. *)
let expand_spec = function
  | At (at, action) -> Some [ { at; action } ]
  | Flap_storm { link; start; period; count } ->
      Some
        (List.concat
           (List.init count (fun k ->
                let base = start +. (float_of_int k *. period) in
                [
                  { at = base; action = Link_fail link };
                  { at = base +. (period /. 2.); action = Link_recover link };
                ])))
  | Correlated_failure { at; links; recover_after } ->
      Some
        (List.map (fun l -> { at; action = Link_fail l }) links
        @ (match recover_after with
          | None -> []
          | Some r ->
              List.map
                (fun l -> { at = at +. r; action = Link_recover l })
                links))
  | Random_link_failures _ -> None

(* bgpsim-lint: allow D004 — Float.compare as a total order for a stable sort *)
let sort_steps = List.stable_sort (fun s1 s2 -> Float.compare s1.at s2.at)

let expand_deterministic t =
  let random = ref 0 in
  let steps =
    List.concat_map
      (fun spec ->
        match expand_spec spec with
        | Some steps -> steps
        | None ->
            incr random;
            [])
      t.specs
  in
  (sort_steps steps, !random)

let compile t ~graph ~rng =
  validate t ~graph;
  let steps =
    List.concat_map
      (fun spec ->
        match expand_spec spec with
        | Some steps -> steps
        | None -> (
            match spec with
            | Random_link_failures { count; window; recover_after } ->
                let edges = Array.of_list (Topo.Graph.edges graph) in
                Dessim.Rng.shuffle rng edges;
                List.concat
                  (List.init count (fun k ->
                       let l = edges.(k) in
                       let at = Dessim.Rng.float rng window in
                       { at; action = Link_fail l }
                       ::
                       (match recover_after with
                       | None -> []
                       | Some r ->
                           [ { at = at +. r; action = Link_recover l } ])))
            | At _ | Flap_storm _ | Correlated_failure _ -> assert false))
      t.specs
  in
  sort_steps steps

(* --- rendering --- *)

let link_str (a, b) = Printf.sprintf "%d-%d" a b

let spec_to_string = function
  | At (at, Link_fail l) -> Printf.sprintf "fail@%g:%s" at (link_str l)
  | At (at, Link_recover l) -> Printf.sprintf "recover@%g:%s" at (link_str l)
  | At (at, Session_reset l) -> Printf.sprintf "reset@%g:%s" at (link_str l)
  | At (at, Node_crash v) -> Printf.sprintf "crash@%g:%d" at v
  | At (at, Node_restart v) -> Printf.sprintf "restart@%g:%d" at v
  | Flap_storm { link; start; period; count } ->
      Printf.sprintf "storm@%g:%s,%g,%d" start (link_str link) period count
  | Correlated_failure { at; links; recover_after } ->
      Printf.sprintf "corr@%g:%s%s" at
        (String.concat "+" (List.map link_str links))
        (match recover_after with
        | None -> ""
        | Some r -> Printf.sprintf ",%g" r)
  | Random_link_failures { count; window; recover_after } ->
      Printf.sprintf "rand@%d:%g%s" count window
        (match recover_after with
        | None -> ""
        | Some r -> Printf.sprintf ",%g" r)

let to_string t =
  String.concat ";"
    (List.map spec_to_string t.specs
    @ (if t.msg_loss > 0. then [ Printf.sprintf "loss=%g" t.msg_loss ] else [])
    @ if t.msg_dup > 0. then [ Printf.sprintf "dup=%g" t.msg_dup ] else [])

let name t = match t.name with Some n -> n | None -> to_string t

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* --- parsing --- *)

let ( let* ) = Result.bind

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" what s)

let parse_link s =
  match String.split_on_char '-' (String.trim s) with
  | [ a; b ] ->
      let* a = parse_int "link endpoint" a in
      let* b = parse_int "link endpoint" b in
      Ok (a, b)
  | _ -> Error (Printf.sprintf "expected a link 'a-b', got %S" s)

let parse_clause clause =
  match String.index_opt clause '=' with
  | Some i ->
      let key = String.sub clause 0 i
      and value = String.sub clause (i + 1) (String.length clause - i - 1) in
      let* p = parse_float key value in
      if not (p >= 0. && p <= 1.) then
        Error (Printf.sprintf "%s: probability %g outside [0, 1]" key p)
      else (
        match String.trim key with
        | "loss" -> Ok (`Loss p)
        | "dup" -> Ok (`Dup p)
        | k -> Error (Printf.sprintf "unknown knob %S (expected loss or dup)" k))
  | None -> (
      match String.index_opt clause '@' with
      | None -> Error (Printf.sprintf "clause %S has no '@'" clause)
      | Some i -> (
          let op = String.trim (String.sub clause 0 i)
          and rest =
            String.sub clause (i + 1) (String.length clause - i - 1)
          in
          match String.index_opt rest ':' with
          | None -> Error (Printf.sprintf "clause %S has no ':'" clause)
          | Some j -> (
              let head = String.sub rest 0 j
              and args = String.sub rest (j + 1) (String.length rest - j - 1) in
              match op with
              | "fail" | "recover" | "reset" ->
                  let* at = parse_float op head in
                  let* l = parse_link args in
                  let action =
                    match op with
                    | "fail" -> Link_fail l
                    | "recover" -> Link_recover l
                    | _ -> Session_reset l
                  in
                  Ok (`Spec (At (at, action)))
              | "crash" | "restart" ->
                  let* at = parse_float op head in
                  let* v = parse_int op args in
                  Ok
                    (`Spec
                      (At
                         ( at,
                           if op = "crash" then Node_crash v
                           else Node_restart v )))
              | "storm" -> (
                  let* start = parse_float "storm" head in
                  match String.split_on_char ',' args with
                  | [ l; period; count ] ->
                      let* link = parse_link l in
                      let* period = parse_float "storm period" period in
                      let* count = parse_int "storm count" count in
                      Ok (`Spec (Flap_storm { link; start; period; count }))
                  | _ ->
                      Error
                        (Printf.sprintf
                           "storm: expected 'a-b,PERIOD,COUNT', got %S" args))
              | "corr" -> (
                  let* at = parse_float "corr" head in
                  let links_str, recover_after =
                    match String.split_on_char ',' args with
                    | [ ls ] -> (ls, Ok None)
                    | [ ls; r ] ->
                        ( ls,
                          Result.map Option.some
                            (parse_float "corr recover" r) )
                    | _ -> (args, Error "corr: too many commas")
                  in
                  let* recover_after in
                  let* links =
                    List.fold_right
                      (fun l acc ->
                        let* acc in
                        let* l = parse_link l in
                        Ok (l :: acc))
                      (String.split_on_char '+' links_str)
                      (Ok [])
                  in
                  Ok (`Spec (Correlated_failure { at; links; recover_after })))
              | "rand" -> (
                  let* count = parse_int "rand" head in
                  match String.split_on_char ',' args with
                  | [ w ] ->
                      let* window = parse_float "rand window" w in
                      Ok
                        (`Spec
                          (Random_link_failures
                             { count; window; recover_after = None }))
                  | [ w; r ] ->
                      let* window = parse_float "rand window" w in
                      let* r = parse_float "rand recover" r in
                      Ok
                        (`Spec
                          (Random_link_failures
                             { count; window; recover_after = Some r }))
                  | _ ->
                      Error
                        (Printf.sprintf
                           "rand: expected 'WINDOW[,RECOVER]', got %S" args))
              | op -> Error (Printf.sprintf "unknown fault op %S" op))))

let of_string s =
  let clauses =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then Error "empty scenario"
  else
    let* parts =
      List.fold_right
        (fun clause acc ->
          let* acc in
          let* p = parse_clause clause in
          Ok (p :: acc))
        clauses (Ok [])
    in
    let specs =
      List.filter_map (function `Spec sp -> Some sp | _ -> None) parts
    in
    let knob pick init =
      List.fold_left
        (fun acc p -> match pick p with Some v -> v | None -> acc)
        init parts
    in
    let msg_loss = knob (function `Loss p -> Some p | _ -> None) 0. in
    let msg_dup = knob (function `Dup p -> Some p | _ -> None) 0. in
    Ok { name = None; specs; msg_loss; msg_dup }

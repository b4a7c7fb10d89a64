(* Minimal JSON: the one writer behind the lint report and the
   pre-flight reports.  The emitter produces deterministic bytes
   (object fields in the order given); the parser accepts the
   emitter's output plus ordinary whitespace.  Non-ASCII bytes
   (em-dashes in justifications) pass through both directions
   untouched, as JSON permits raw UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float x when not (Float.is_finite x) -> Buffer.add_string b "null"
    | Float x when Float.is_integer x && Float.abs x < 1e15 ->
        Buffer.add_string b (Printf.sprintf "%.0f" x)
    | Float x -> Buffer.add_string b (Printf.sprintf "%.6g" x)
    | Str s ->
        Buffer.add_char b '"';
        buf_add_escaped b s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          l;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            go (Str k);
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char b e;
                  go ()
              | 'n' ->
                  Buffer.add_char b '\n';
                  go ()
              | 'r' ->
                  Buffer.add_char b '\r';
                  go ()
              | 't' ->
                  Buffer.add_char b '\t';
                  go ()
              | 'b' ->
                  Buffer.add_char b '\b';
                  go ()
              | 'f' ->
                  Buffer.add_char b '\012';
                  go ()
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape"
                  else begin
                    let hex = String.sub s !pos 4 in
                    pos := !pos + 4;
                    (match int_of_string_opt ("0x" ^ hex) with
                    | Some code when code < 0x80 ->
                        Buffer.add_char b (Char.chr code)
                    | Some _ -> fail "non-ASCII \\u escape unsupported"
                    | None -> fail "bad \\u escape");
                    go ()
                  end
              | _ -> fail "bad escape")
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          digits ()
      | _ -> ()
    in
    let accept chars =
      match peek () with
      | Some c when String.contains chars c ->
          advance ();
          true
      | _ -> false
    in
    ignore (accept "-");
    digits ();
    let fraction = accept "." in
    if fraction then digits ();
    let exponent = accept "eE" in
    if exponent then begin
      ignore (accept "+-");
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if text = "" then fail "expected number"
    else
      match
        if fraction || exponent then
          Option.map (fun x -> Float x) (float_of_string_opt text)
        else Option.map (fun i -> Int i) (int_of_string_opt text)
      with
      | Some v -> v
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes" else v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors used by the report decoder --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_list = function List l -> Some l | _ -> None

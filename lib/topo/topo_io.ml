let to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n_nodes g));
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (Graph.edges g);
  Buffer.contents buf

let of_edge_list text =
  let lines = String.split_on_char '\n' text in
  let significant =
    List.filter
      (fun line ->
        let line = String.trim line in
        line <> "" && not (String.length line > 0 && line.[0] = '#'))
      lines
  in
  match significant with
  | [] -> invalid_arg "Topo_io.of_edge_list: empty input"
  | header :: rest ->
      let n =
        match String.split_on_char ' ' (String.trim header) with
        | [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some n -> n
            | None ->
                invalid_arg "Topo_io.of_edge_list: unparsable node count")
        | _ ->
            invalid_arg
              "Topo_io.of_edge_list: first line must be 'n <nodes>'"
      in
      (* every simulator needs a connected graph, which has at least
         n - 1 edges: checking that first bounds the allocation below by
         the input's length *)
      let n_edges = List.length rest in
      if n > n_edges + 1 then
        invalid_arg
          (Printf.sprintf
             "Topo_io.of_edge_list: %d nodes but %d edges; a connected graph \
              needs at least n - 1"
             n n_edges);
      let parse_edge line =
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some u, Some v -> (u, v)
            | _ ->
                invalid_arg
                  (Printf.sprintf "Topo_io.of_edge_list: bad edge line %S"
                     line))
        | _ ->
            invalid_arg
              (Printf.sprintf "Topo_io.of_edge_list: bad edge line %S" line)
      in
      Graph.create ~n ~edges:(List.map parse_edge rest)

let to_dot ?(name = "topology") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v))
    (Graph.nodes g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse text =
  let lines = String.split_on_char '\n' text in
  let n = ref None in
  let ids = ref None in
  let committees = ref [] in
  let error = ref None in
  let fail lineno msg =
    if !error = None then
      error := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  let int_of lineno tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None ->
      fail lineno (Printf.sprintf "expected an integer, got %S" tok);
      0
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match tokens line with
      | [] -> ()
      | "n" :: [ v ] -> n := Some (int_of lineno v)
      | "n" :: _ -> fail lineno "n takes exactly one value"
      | "ids" :: rest ->
        if rest = [] then fail lineno "ids needs at least one identifier"
        else ids := Some (List.map (int_of lineno) rest)
      | "committee" :: rest ->
        if List.length rest < 2 then
          fail lineno "a committee needs at least two members"
        else committees := List.map (int_of lineno) rest :: !committees
      | kw :: _ -> fail lineno (Printf.sprintf "unknown keyword %S" kw))
    lines;
  match !error with
  | Some msg -> Error msg
  | None ->
    let committees = List.rev !committees in
    (match !n with
     | None -> Error "missing `n <count>' line"
     | Some n when n < 1 -> Error "n must be positive"
     | Some n when n > Hypergraph.max_professors ->
       Error
         (Printf.sprintf "n = %d is past the cap of %d professors" n
            Hypergraph.max_professors)
     | Some _ when List.length committees > Hypergraph.max_committees ->
       Error
         (Printf.sprintf "more than the cap of %d committees"
            Hypergraph.max_committees)
     | Some n ->
       let ids =
         match !ids with
         | Some l -> l
         | None -> List.init n Fun.id
       in
       if List.length ids <> n then
         Error
           (Printf.sprintf "ids lists %d identifiers for n = %d"
              (List.length ids) n)
       else begin
         let ids = Array.of_list ids in
         (* the first vertex carrying each identifier *)
         let vertex = Hashtbl.create n in
         for v = n - 1 downto 0 do
           Hashtbl.replace vertex ids.(v) v
         done;
         let vertex_of = Hashtbl.find_opt vertex in
         let exception Bad of string in
         try
           let committees =
             List.map
               (List.map (fun id ->
                    match vertex_of id with
                    | Some v -> v
                    | None ->
                      raise (Bad (Printf.sprintf "unknown professor identifier %d" id))))
               committees
           in
           (try Ok (Hypergraph.create ~ids ~n committees) with
            | Hypergraph.Invalid msg -> Error msg)
         with Bad msg -> Error msg
       end)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let to_string h =
  let buf = Buffer.create 256 in
  let n = Hypergraph.n h in
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  Buffer.add_string buf "ids";
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" (Hypergraph.id h v))
  done;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (e : Hypergraph.edge) ->
      Buffer.add_string buf "committee";
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (Hypergraph.id h v)))
        e.Hypergraph.members;
      Buffer.add_char buf '\n')
    (Hypergraph.edges h);
  Buffer.contents buf

let save path h = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string h))

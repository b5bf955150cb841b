(* Versioned, line-oriented serialization of the exact tier's packed
   guard/footprint tables ([Snapcc_mc.Tables.portable]).

   The format is texty on purpose — artifacts are meant to be diffed and
   inspected in CI — but entry rows are run-length encoded: the dominant
   value by far is -1 (no action enabled), so tables compress well. *)

module Tables = Snapcc_mc.Tables

let magic = "snapcc-tables v1"

let ints_line prefix xs =
  prefix
  ^ (Array.to_list xs |> List.map string_of_int |> String.concat " ")

(* run-length encoding of the [n] values [v 0], ..., [v (n - 1)]:
   "value*count" words *)
let rle_words n v =
  let buf = Buffer.create 256 in
  let i = ref 0 in
  while !i < n do
    let x = v !i in
    let j = ref (!i + 1) in
    while !j < n && v !j = x do
      incr j
    done;
    if Buffer.length buf > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int x);
    if !j - !i > 1 then begin
      Buffer.add_char buf '*';
      Buffer.add_string buf (string_of_int (!j - !i))
    end;
    i := !j
  done;
  Buffer.contents buf

let to_lines (p : Tables.portable) =
  let lines = ref [] in
  let push l = lines := l :: !lines in
  push magic;
  push ("algo " ^ p.Tables.p_algo);
  push ("topo " ^ p.Tables.p_topo);
  push (Printf.sprintf "n %d" p.Tables.p_n);
  push (Printf.sprintf "nlabels %d" (Array.length p.Tables.p_labels));
  Array.iter push p.Tables.p_labels;
  push (ints_line "dom " p.Tables.p_dom);
  Array.iteri
    (fun i proc ->
      match proc with
      | Error reason -> push (Printf.sprintf "proc %d skipped %s" i reason)
      | Ok (tb : Tables.proc_tbl) ->
        push (Printf.sprintf "proc %d table" i);
        push (ints_line "support " tb.Tables.support);
        push (ints_line "sizes " tb.Tables.sizes);
        push (ints_line "strides " tb.Tables.strides);
        push (Printf.sprintf "nmodes %d" Tables.nmodes);
        let n = Tables.ncells tb in
        for mode = 0 to Tables.nmodes - 1 do
          push (Printf.sprintf "mode %d" n);
          push
            (rle_words n (fun c ->
                 Tables.code_entry tb (Tables.cell_code tb c) ~mode))
        done)
    p.Tables.p_procs;
  push "end";
  List.rev !lines

exception Bad of string

(* The most (cell, mode) pairs a table may declare: [Tables.build]'s
   default enumeration cap, so no table a default pass stores is refused,
   while a hostile size cannot make the decoder allocate without bound. *)
let max_pairs = 1 lsl 27

let of_lines lines =
  let lines = ref lines in
  let next what =
    match !lines with
    | [] -> raise (Bad (Printf.sprintf "truncated artifact (expected %s)" what))
    | l :: rest ->
      lines := rest;
      l
  in
  let field key =
    let l = next key in
    let kl = String.length key in
    if String.length l > kl && String.sub l 0 (kl + 1) = key ^ " " then
      String.sub l (kl + 1) (String.length l - kl - 1)
    else raise (Bad (Printf.sprintf "expected %S line, got %S" key l))
  in
  let int_field key =
    match int_of_string_opt (field key) with
    | Some i -> i
    | None -> raise (Bad (Printf.sprintf "non-integer %s field" key))
  in
  let ints_field key =
    field key |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some i -> i
           | None -> raise (Bad (Printf.sprintf "non-integer in %s row" key)))
    |> Array.of_list
  in
  (* One mode row: its runs as values and cumulative ends. *)
  let runs count =
    let words =
      next "rle row" |> String.split_on_char ' ' |> List.filter (fun s -> s <> "")
    in
    let pos = ref 0 in
    let parsed =
      List.map
        (fun w ->
          let v, c =
            match String.index_opt w '*' with
            | None -> (int_of_string_opt w, 1)
            | Some st ->
              ( int_of_string_opt (String.sub w 0 st),
                Option.value ~default:0
                  (int_of_string_opt
                     (String.sub w (st + 1) (String.length w - st - 1))) )
          in
          match v with
          | None -> raise (Bad (Printf.sprintf "bad RLE word %S" w))
          | Some v ->
            if c <= 0 || c > count - !pos then
              raise (Bad "RLE run overflows the declared length");
            pos := !pos + c;
            (v, !pos))
        words
    in
    if !pos <> count then raise (Bad "RLE rows shorter than the declared length");
    (Array.of_list (List.map fst parsed), Array.of_list (List.map snd parsed))
  in
  (* A stored table: its shape is checked before any row is read, and the
     rows are coded straight from their runs. *)
  let table ~n ~proc =
    let support = ints_field "support" in
    let sizes = ints_field "sizes" in
    let strides = ints_field "strides" in
    let k = Array.length support in
    if Array.length sizes <> k || Array.length strides <> k then
      raise (Bad "support/sizes/strides length mismatch");
    Array.iteri
      (fun j q ->
        if q < 0 || q >= n || (j > 0 && q <= support.(j - 1)) then
          raise (Bad "support is not ascending within the processes"))
      support;
    if not (Array.mem proc support) then
      raise (Bad "support lacks its process");
    let ncells =
      Array.fold_left
        (fun acc s ->
          if s <= 0 || acc > max_pairs / Tables.nmodes / s then
            raise (Bad "sizes are not positive, or their product is too large");
          acc * s)
        1 sizes
    in
    for j = k - 1 downto 0 do
      if strides.(j) <> (if j = k - 1 then 1 else strides.(j + 1) * sizes.(j + 1))
      then raise (Bad "strides are not row-major over sizes")
    done;
    if int_field "nmodes" <> Tables.nmodes then
      raise (Bad (Printf.sprintf "nmodes is not %d" Tables.nmodes));
    let rows =
      Array.init Tables.nmodes (fun _ ->
          if int_field "mode" <> ncells then
            raise (Bad "mode row length differs from the product of sizes");
          runs ncells)
    in
    let at = Array.make Tables.nmodes 0 in
    let entry ~cell ~mode =
      let vals, ends = rows.(mode) in
      while ends.(at.(mode)) <= cell do
        at.(mode) <- at.(mode) + 1
      done;
      vals.(at.(mode))
    in
    match Tables.of_rows ~support ~sizes ~strides entry with
    | Ok _ as tb -> tb
    | Error e -> raise (Bad e)
  in
  try
    (match next "magic" with
    | l when l = magic -> ()
    | l -> raise (Bad (Printf.sprintf "bad magic %S (expected %S)" l magic)));
    let p_algo = field "algo" in
    let p_topo = field "topo" in
    let p_n = int_field "n" in
    let nlabels = int_field "nlabels" in
    if nlabels < 0 then raise (Bad "negative nlabels");
    let p_labels = Array.of_list (List.init nlabels (fun _ -> next "label")) in
    let p_dom = ints_field "dom" in
    if Array.length p_dom <> p_n then raise (Bad "dom row length <> n");
    let p_procs =
      Array.init p_n (fun i ->
          let l = field "proc" in
          match String.index_opt l ' ' with
          | None -> raise (Bad (Printf.sprintf "malformed proc line %S" l))
          | Some sp ->
            let idx = String.sub l 0 sp in
            if int_of_string_opt idx <> Some i then
              raise (Bad (Printf.sprintf "proc lines out of order at %d" i));
            let rest = String.sub l (sp + 1) (String.length l - sp - 1) in
            if rest = "table" then table ~n:p_n ~proc:i
            else
              match String.index_opt rest ' ' with
              | Some sp2 when String.sub rest 0 sp2 = "skipped" ->
                Error (String.sub rest (sp2 + 1) (String.length rest - sp2 - 1))
              | _ ->
                raise (Bad (Printf.sprintf "malformed proc payload %S" rest)))
    in
    (match next "end" with
    | "end" -> ()
    | l -> raise (Bad (Printf.sprintf "expected end, got %S" l)));
    Ok { Tables.p_algo; p_topo; p_n; p_labels; p_dom; p_procs }
  with Bad msg -> Error msg

let save file p =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (to_lines p))

let load file =
  match open_in file with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        of_lines (go []))

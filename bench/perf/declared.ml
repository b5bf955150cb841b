(* The names BENCHMARK.json declares, and the check that the harness emits
   exactly those: a metric or workload renamed on one side only fails the
   run (exit 2) instead of silently starting a new series. *)

module Json = Snapcc_telemetry.Json

type t = {
  workloads : string list;
  end_to_end : (string * string) list;  (** (name, unit) *)
  per_layer : (string * string) list;
}

let of_string s =
  let ( let* ) = Result.bind in
  let* j = Json.of_string s in
  let list key =
    match Option.bind (Json.member key j) Json.to_list with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "BENCHMARK.json: no %S list" key)
  in
  let str key o =
    match Option.bind (Json.member key o) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "BENCHMARK.json: entry without %S" key)
  in
  let all f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      l (Ok [])
  in
  let metrics key =
    let* l = list key in
    all
      (fun o ->
        let* name = str "name" o in
        let* u = str "unit" o in
        Ok (name, u))
      l
  in
  let* wl = list "workloads" in
  let* workloads = all (str "name") wl in
  let* end_to_end = metrics "end_to_end" in
  let* per_layer = metrics "per_layer" in
  Ok { workloads; end_to_end; per_layer }

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* Differences between the declared and the emitted (name, unit) pairs,
   in both directions; [] when they agree. *)
let diff ~declared ~emitted =
  let missing =
    List.filter_map
      (fun (n, u) ->
        match List.assoc_opt n emitted with
        | None -> Some (Printf.sprintf "%s declared but not emitted" n)
        | Some u' when u' <> u -> Some (Printf.sprintf "%s: unit %s, declared %s" n u' u)
        | Some _ -> None)
      declared
  in
  let extra =
    List.filter_map
      (fun (n, _) ->
        if List.mem_assoc n declared then None
        else Some (Printf.sprintf "%s emitted but not declared" n))
      emitted
  in
  missing @ extra

type t = {
  name : string;
  select :
    rng:Random.State.t -> step:int -> enabled:int list ->
    continuously_enabled:(int -> int) -> int list;
}

let name d = d.name

let select d ~rng ~step ~enabled ~continuously_enabled =
  d.select ~rng ~step ~enabled ~continuously_enabled

let synchronous =
  { name = "synchronous";
    select = (fun ~rng:_ ~step:_ ~enabled ~continuously_enabled:_ -> enabled) }

let central () =
  let last = ref (-1) in
  let select ~rng:_ ~step:_ ~enabled ~continuously_enabled:_ =
    match enabled with
    | [] -> []
    | _ ->
      (* first enabled process strictly after [!last], wrapping around *)
      let after = List.filter (fun p -> p > !last) enabled in
      let chosen = match after with p :: _ -> p | [] -> List.hd enabled in
      last := chosen;
      [ chosen ]
  in
  { name = "central"; select }

let random_subset ?(p = 0.5) () =
  let select ~rng ~step:_ ~enabled ~continuously_enabled =
    match enabled with
    | [] -> []
    | _ ->
      let forced = List.filter (fun q -> continuously_enabled q >= 64) enabled in
      let coin = List.filter (fun _ -> Random.State.float rng 1.0 < p) enabled in
      let chosen = List.sort_uniq Int.compare (forced @ coin) in
      if chosen = [] then [ List.nth enabled (Random.State.int rng (List.length enabled)) ]
      else chosen
  in
  { name = Printf.sprintf "random(p=%.2f)" p; select }

let adversarial ~name ~score =
  let select ~rng:_ ~step:_ ~enabled ~continuously_enabled =
    match enabled with
    | [] -> []
    | _ ->
      (match List.filter (fun q -> continuously_enabled q >= 256) enabled with
       | q :: _ -> [ q ]
       | [] ->
         let best =
           List.fold_left
             (fun acc p ->
               match acc with
               | None -> Some p
               | Some b -> if score p > score b then Some p else Some b)
             None enabled
         in
         (match best with Some b -> [ b ] | None -> []))
  in
  { name = Printf.sprintf "adversarial(%s)" name; select }

let of_fun ~name f =
  { name; select = (fun ~rng:_ ~step ~enabled ~continuously_enabled:_ -> f ~step ~enabled) }

let all_standard () =
  [ synchronous;
    central ();
    random_subset ~p:0.5 ();
    random_subset ~p:0.15 ();
  ]

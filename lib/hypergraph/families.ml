(* Committees are written 1-based in the paper's figures; [paper] shifts
   them to 0-based vertex indices and keeps the paper's identifiers. *)
let paper ~n committees =
  let shift = List.map (List.map (fun v -> v - 1)) committees in
  Hypergraph.create ~ids:(Array.init n (fun v -> v + 1)) ~n shift

let fig1 () = paper ~n:6 [ [1; 2]; [1; 2; 3; 4]; [2; 4; 5]; [3; 6]; [4; 6] ]
let fig2 () = paper ~n:5 [ [1; 2]; [1; 3; 5]; [3; 4] ]

let fig3 () =
  paper ~n:10
    [ [1; 2; 3]; [3; 4]; [4; 5]; [5; 6]; [6; 7]; [7; 8]; [8; 9]; [9; 10]; [6; 9] ]

let fig4 () = paper ~n:9 [ [1; 2; 5; 8]; [3; 4; 5]; [6; 7; 9]; [8; 9] ]

let pair_ring n =
  if n < 3 then invalid_arg "pair_ring: need n >= 3";
  Hypergraph.create ~n (List.init n (fun i -> [ i; (i + 1) mod n ]))

let path n =
  if n < 2 then invalid_arg "path: need n >= 2";
  Hypergraph.create ~n (List.init (n - 1) (fun i -> [ i; i + 1 ]))

let star n =
  if n < 2 then invalid_arg "star: need n >= 2";
  Hypergraph.create ~n (List.init (n - 1) (fun i -> [ 0; i + 1 ]))

let clique n =
  if n < 2 then invalid_arg "clique: need n >= 2";
  let committees = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      committees := [ i; j ] :: !committees
    done
  done;
  Hypergraph.create ~n (List.rev !committees)

let k_uniform_ring ~n ~k =
  if n < 3 || k < 2 || k >= n then invalid_arg "k_uniform_ring: need 2 <= k < n, n >= 3";
  Hypergraph.create ~n
    (List.init n (fun i -> List.init k (fun j -> (i + j) mod n)))

let single k =
  if k < 2 then invalid_arg "single: need k >= 2";
  Hypergraph.create ~n:k [ List.init k Fun.id ]

(* Random committees, then repair coverage and connectivity: any professor
   left uncovered, or any disconnected component, is patched with a bridging
   pair committee.  Repairs are deterministic in the seed. *)
let random ~seed ~n ~m =
  if n < 4 then invalid_arg "random: need n >= 4";
  let rng = Random.State.make [| seed; n; m |] in
  let seen = Hashtbl.create m in
  let draw () =
    let k = 2 + Random.State.int rng 3 in
    let members = Hashtbl.create k in
    while Hashtbl.length members < k do
      Hashtbl.replace members (Random.State.int rng n) ()
    done;
    List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) members [])
  in
  let committees = ref [] in
  let attempts = ref 0 in
  while List.length !committees < m && !attempts < 100 * (m + 1) do
    incr attempts;
    let c = draw () in
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      committees := c :: !committees
    end
  done;
  let covered = Array.make n false in
  List.iter (List.iter (fun v -> covered.(v) <- true)) !committees;
  for v = 0 to n - 1 do
    if not covered.(v) then begin
      let u = (v + 1 + Random.State.int rng (n - 1)) mod n in
      let c = List.sort compare [ v; u ] in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        committees := c :: !committees
      end
      else covered.(v) <- true (* already linked by the drawn pair *)
    end
  done;
  (* Union-find to bridge components of the underlying network. *)
  let parent = Array.init n Fun.id in
  let rec find v = if parent.(v) = v then v else (parent.(v) <- find parent.(v); parent.(v)) in
  let union u v = parent.(find u) <- find v in
  List.iter
    (fun c -> match c with [] -> () | v0 :: rest -> List.iter (union v0) rest)
    !committees;
  for v = 1 to n - 1 do
    if find v <> find 0 then begin
      (* bridge this component to component of 0 via its representative *)
      let c = List.sort compare [ 0; v ] in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        committees := c :: !committees
      end;
      union v 0
    end
  done;
  Hypergraph.create ~n (List.rev !committees)

let with_shuffled_ids ~seed h =
  let n = Hypergraph.n h in
  let rng = Random.State.make [| seed; n; 0x1d5 |] in
  let ids = Array.init n (fun v -> v) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let committees =
    Array.to_list (Hypergraph.edges h)
    |> List.map (fun (e : Hypergraph.edge) -> Array.to_list e.members)
  in
  Hypergraph.create ~ids ~n committees

let all_named () =
  [ ("triangle", pair_ring 3);
    ("fig1", fig1 ());
    ("fig2", fig2 ());
    ("fig3", fig3 ());
    ("fig4", fig4 ());
    ("ring6", pair_ring 6);
    ("ring9", pair_ring 9);
    ("path5", path 5);
    ("star5", star 5);
    ("clique4", clique 4);
    ("triring9", k_uniform_ring ~n:9 ~k:3);
    ("single4", single 4);
    ("rand12", random ~seed:42 ~n:12 ~m:10);
  ]

let by_name name =
  match List.assoc_opt name (all_named ()) with
  | Some h -> h
  | None ->
    (* [m k]: how many committees the family has with [k] professors;
       both counts are checked against the caps before anything is built *)
    let parse prefix ~m mk =
      if String.length name > String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then
        match
          int_of_string_opt
            (String.sub name (String.length prefix)
               (String.length name - String.length prefix))
        with
        | Some k
          when k > Hypergraph.max_professors || m k > Hypergraph.max_committees ->
          invalid_arg
            (Printf.sprintf
               "Families.by_name: %S is past the cap of %d professors and %d \
                committees"
               name Hypergraph.max_professors Hypergraph.max_committees)
        | Some k -> Some (mk k)
        | None -> None
      else None
    in
    let pairs k = k - 1 in
    let candidates =
      [ parse "triangle" ~m:Fun.id (fun k ->
            if k = 3 then pair_ring 3
            else invalid_arg "Families.by_name: triangle has exactly 3 professors");
        parse "ring" ~m:Fun.id pair_ring; parse "path" ~m:pairs path;
        parse "line" ~m:pairs path; parse "star" ~m:pairs star;
        parse "clique" ~m:(fun k -> k * pairs k / 2) clique;
        parse "single" ~m:(fun _ -> 1) single ]
    in
    (match List.find_map Fun.id candidates with
     | Some h -> h
     | None -> invalid_arg (Printf.sprintf "Families.by_name: unknown topology %S" name))

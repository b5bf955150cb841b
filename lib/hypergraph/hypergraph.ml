type edge = { eid : int; members : int array }

type t = {
  n : int;
  edges : edge array;
  ids : int array;
  id_rev : (int, int) Hashtbl.t;
  incident : int array array;
  neighbors : int array array;
  adjacency : int array array;
  min_edges : int array array;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let sorted_dedup xs =
  let xs = List.sort_uniq compare xs in
  Array.of_list xs

(* Connectivity of the underlying network via DFS over adjacency lists. *)
let connected n adjacency =
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        Array.iter visit adjacency.(v)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end

let build_tables ~n ~edges =
  let incident = Array.make n [] in
  let nbr = Array.make n [] in
  Array.iter
    (fun e ->
      Array.iter
        (fun v ->
          incident.(v) <- e.eid :: incident.(v);
          Array.iter (fun u -> if u <> v then nbr.(v) <- u :: nbr.(v)) e.members)
        e.members)
    edges;
  let incident = Array.map (fun l -> sorted_dedup l) incident in
  let neighbors = Array.map (fun l -> sorted_dedup l) nbr in
  (* [MinEdges_v], built once: guards test membership in it *)
  let min_edges =
    Array.map
      (fun es ->
        let size e = Array.length edges.(e).members in
        let sz = Array.fold_left (fun acc e -> Int.min acc (size e)) max_int es in
        Array.of_list (List.filter (fun e -> size e = sz) (Array.to_list es)))
      incident
  in
  (incident, neighbors, min_edges)

let max_professors = 1 lsl 20
let max_committees = 1 lsl 20

let create ?ids ~n edge_lists =
  if n < 1 then invalid "hypergraph must have at least one vertex (got %d)" n;
  let ids = match ids with None -> Array.init n (fun v -> v) | Some a -> a in
  if Array.length ids <> n then
    invalid "ids array has length %d, expected %d" (Array.length ids) n;
  let id_rev = Hashtbl.create n in
  Array.iteri
    (fun v id ->
      if Hashtbl.mem id_rev id then invalid "duplicate identifier %d" id;
      Hashtbl.add id_rev id v)
    ids;
  let mk_edge eid members =
    let members = sorted_dedup members in
    if Array.length members < 2 then
      invalid "committee #%d has fewer than 2 distinct members" eid;
    Array.iter
      (fun v ->
        if v < 0 || v >= n then invalid "committee #%d: member %d out of range" eid v)
      members;
    { eid; members }
  in
  let edges = Array.of_list (List.mapi mk_edge edge_lists) in
  if Array.length edges = 0 then invalid "hypergraph must have at least one committee";
  let seen = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun e ->
      let key = Array.to_list e.members in
      if Hashtbl.mem seen key then
        invalid "duplicate committee {%s}"
          (String.concat "," (List.map string_of_int key));
      Hashtbl.add seen key ())
    edges;
  let incident, neighbors, min_edges = build_tables ~n ~edges in
  Array.iteri
    (fun v es ->
      if Array.length es = 0 then
        invalid "professor %d belongs to no committee" v)
    incident;
  if not (connected n neighbors) then
    invalid "underlying communication network is disconnected";
  { n; edges; ids; id_rev; incident; neighbors; adjacency = neighbors; min_edges }

let n h = h.n
let m h = Array.length h.edges
let edges h = h.edges

let edge h eid =
  if eid < 0 || eid >= Array.length h.edges then
    invalid "edge index %d out of range" eid;
  h.edges.(eid)

let edge_members h eid = (edge h eid).members
let id h v = h.ids.(v)
let vertex_of_id h i = Hashtbl.find h.id_rev i
let incident h v = h.incident.(v)
let neighbors h v = h.neighbors.(v)

(* Membership in an ascending array, without a closure. *)
let mem_sorted (a : int array) x =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) < x do incr i done;
  !i < Array.length a && a.(!i) = x

let are_neighbors h u v = mem_sorted h.neighbors.(u) v

let mem_edge h ~vertex ~eid = mem_sorted (edge h eid).members vertex

let conflicting h e1 e2 =
  let m2 = (edge h e2).members in
  Array.exists (fun v -> Array.exists (fun u -> u = v) m2) (edge h e1).members

let degree h v = Array.length h.incident.(v)
let graph_degree h v = Array.length h.neighbors.(v)

let min_edge_size h v =
  Array.fold_left
    (fun acc eid -> min acc (Array.length h.edges.(eid).members))
    max_int h.incident.(v)

let min_edges h v = h.min_edges.(v)

let max_min h =
  let r = ref 0 in
  for v = 0 to h.n - 1 do
    if degree h v > 0 then r := max !r (min_edge_size h v)
  done;
  !r

let max_hedge h =
  Array.fold_left (fun acc e -> max acc (Array.length e.members)) 0 h.edges

let underlying h = h.adjacency

let restrict h ~removed =
  let gone = Array.make h.n false in
  List.iter (fun v -> if v >= 0 && v < h.n then gone.(v) <- true) removed;
  let surviving =
    Array.to_list h.edges
    |> List.filter (fun e -> not (Array.exists (fun v -> gone.(v)) e.members))
  in
  match surviving with
  | [] -> None
  | survivors ->
    let edges =
      Array.of_list (List.mapi (fun i e -> { e with eid = i }) survivors)
    in
    let incident, neighbors, min_edges = build_tables ~n:h.n ~edges in
    Some
      { n = h.n;
        edges;
        ids = h.ids;
        id_rev = h.id_rev;
        incident;
        neighbors;
        adjacency = neighbors;
        min_edges }

let pp_edge h ppf eid =
  let members = (edge h eid).members in
  Format.fprintf ppf "{%s}"
    (String.concat ","
       (Array.to_list (Array.map (fun v -> string_of_int h.ids.(v)) members)))

let pp ppf h =
  Format.fprintf ppf "@[<hv 2>hypergraph(n=%d,@ E=[" h.n;
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf ";@ ";
      pp_edge h ppf e.eid)
    h.edges;
  Format.fprintf ppf "])@]"

let to_string h = Format.asprintf "%a" pp h

let equal a b =
  a.n = b.n && a.ids = b.ids
  && Array.length a.edges = Array.length b.edges
  && Array.for_all2 (fun e1 e2 -> e1.members = e2.members) a.edges b.edges

(** Self-stabilizing leader election and BFS spanning tree (min-identifier).

    Classic construction (Dolev–Israeli–Moran style) with the distance bound
    [dist < n] killing ghost identifiers: each process maintains its claimed
    leader identifier, its distance to it, its parent, and — so that the
    Euler-tour token circulation can be evaluated locally — an explicit
    ordered list of its tree children (children cannot read their siblings'
    states, so the parent publishes the list). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

type t = {
  lead : int;  (** claimed leader identifier *)
  dist : int;  (** claimed distance to the leader *)
  par : int;  (** parent vertex index, [-1] when claiming to be root *)
  childs : int array;  (** published ordered (ascending) tree children *)
}

let pp ppf s =
  Format.fprintf ppf "lead=%d dist=%d par=%d childs=[%s]" s.lead s.dist s.par
    (String.concat "," (Array.to_list (Array.map string_of_int s.childs)))

let equal (a : t) b =
  a.lead = b.lead && a.dist = b.dist && a.par = b.par
  && Array.length a.childs = Array.length b.childs
  && Array.for_all2 Int.equal a.childs b.childs

(* Claim (l1, d1, p1) precedes (l2, d2, p2) lexicographically. *)
let precedes l1 d1 p1 l2 d2 p2 =
  l1 < l2 || (l1 = l2 && (d1 < d2 || (d1 = d2 && p1 < p2)))

(* Lexicographically minimal (lead, dist, parent) claim available to [p]:
   either root itself, or adopt a neighbor's claim at distance + 1, provided
   the bound [dist + 1 < n] holds (ghost-leader elimination). *)
let candidate h read get p =
  let n = H.n h and nb = H.neighbors h p in
  let l = ref (H.id h p) and d = ref 0 and a = ref (-1) in
  for i = 0 to Array.length nb - 1 do
    let q = nb.(i) in
    let sq : t = get (read q) in
    (* the self-root claim wins full ties (it has par = -1 < q) *)
    if sq.dist >= 0 && sq.dist + 1 < n && precedes sq.lead (sq.dist + 1) q !l !d !a
    then begin
      l := sq.lead;
      d := sq.dist + 1;
      a := q
    end
  done;
  (!l, !d, !a)

let is_child (me : t) p (sq : t) = sq.par = p && sq.lead = me.lead && sq.dist = me.dist + 1

let computed_children h read get p =
  let me : t = get (read p) in
  Array.to_list (H.neighbors h p)
  |> List.filter (fun q -> is_child me p (get (read q)))
  |> Array.of_list

(* [p]'s claim is the {!candidate}: it is one of the available claims and
   none precedes it (claims are distinct, so the minimum is unique).
   Reads [p] and every neighbor, as {!candidate} does. *)
let tree_ok h read get p =
  let me : t = get (read p) in
  let n = H.n h and nb = H.neighbors h p and self_id = H.id h p in
  let found = ref (me.lead = self_id && me.dist = 0 && me.par = -1) in
  let beaten = ref (precedes self_id 0 (-1) me.lead me.dist me.par) in
  for i = 0 to Array.length nb - 1 do
    let q = nb.(i) in
    let sq : t = get (read q) in
    if sq.dist >= 0 && sq.dist + 1 < n then begin
      if precedes sq.lead (sq.dist + 1) q me.lead me.dist me.par then beaten := true
      else if sq.lead = me.lead && sq.dist + 1 = me.dist && q = me.par then found := true
    end
  done;
  !found && not !beaten

(* [p] publishes exactly {!computed_children}: its ascending neighbors that
   are its children, matched against [childs] in order. *)
let childs_ok h read get p =
  let me : t = get (read p) in
  let nb = H.neighbors h p in
  let k = ref 0 and ok = ref true in
  for i = 0 to Array.length nb - 1 do
    let q = nb.(i) in
    if is_child me p (get (read q)) then begin
      if !k >= Array.length me.childs || me.childs.(!k) <> q then ok := false;
      incr k
    end
  done;
  !ok && !k = Array.length me.childs

let stable h read =
  let ok = ref true in
  for p = 0 to H.n h - 1 do
    ok := !ok && tree_ok h read Fun.id p && childs_ok h read Fun.id p
  done;
  !ok

let is_root h s ~self = s.dist = 0 && s.lead = H.id h self

(* Globally correct BFS tree rooted at the minimum identifier, used as the
   canonical initial configuration. *)
let init h =
  let n = H.n h in
  let root = ref 0 in
  for v = 1 to n - 1 do
    if H.id h v < H.id h !root then root := v
  done;
  let dist = Array.make n max_int and par = Array.make n (-1) in
  dist.(!root) <- 0;
  let queue = Queue.create () in
  Queue.add !root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun q ->
        if dist.(q) > dist.(v) + 1 then begin
          dist.(q) <- dist.(v) + 1;
          par.(q) <- v;
          Queue.add q queue
        end
        else if dist.(q) = dist.(v) + 1 && par.(q) > v then par.(q) <- v)
      (H.neighbors h v)
  done;
  (* min-index parent among valid witnesses, matching [candidate] *)
  for v = 0 to n - 1 do
    if v <> !root then begin
      let best = ref max_int in
      Array.iter
        (fun q -> if dist.(q) = dist.(v) - 1 && q < !best then best := q)
        (H.neighbors h v);
      par.(v) <- !best
    end
  done;
  fun p ->
    let childs =
      Array.to_list (H.neighbors h p)
      |> List.filter (fun q -> par.(q) = p)
      |> Array.of_list
    in
    { lead = H.id h !root; dist = dist.(p); par = par.(p); childs }

let random_init h rng p =
  let n = H.n h in
  let nbrs = H.neighbors h p in
  let max_id = Array.fold_left max 0 (Array.init n (H.id h)) in
  let childs =
    Array.to_list nbrs
    |> List.filter (fun _ -> Random.State.bool rng)
    |> Array.of_list
  in
  {
    lead = Random.State.int rng (max_id + 2);
    dist = Random.State.int rng n;
    par =
      (if Random.State.bool rng || Array.length nbrs = 0 then -1
       else nbrs.(Random.State.int rng (Array.length nbrs)));
    childs;
  }

let actions h ~get ~set : _ Model.action list =
  let me ctx : t = get (ctx.Model.read ctx.Model.self) in
  let put ctx (s : t) = set (ctx.Model.read ctx.Model.self) s in
  [ { Model.label = "LE-childs";
      guard = (fun ctx -> not (childs_ok h ctx.Model.read get ctx.Model.self));
      apply =
        (fun ctx ->
          put ctx
            { (me ctx) with
              childs = computed_children h ctx.Model.read get ctx.Model.self }) };
    { Model.label = "LE-tree";
      guard = (fun ctx -> not (tree_ok h ctx.Model.read get ctx.Model.self));
      apply =
        (fun ctx ->
          let l, d, a = candidate h ctx.Model.read get ctx.Model.self in
          put ctx { (me ctx) with lead = l; dist = d; par = a }) };
  ]

(** Standalone wrapper for testing stabilization in isolation. *)
module Algo : Model.ALGO with type state = t = struct
  type state = t

  let name = "leader-election"
  let pp_state = pp
  let equal_state = equal
  let init h = init h
  let random_init h rng p = random_init h rng p
  let actions h = actions h ~get:Fun.id ~set:(fun _ s -> s)

  let observe h states p =
    let s = states.(p) in
    Snapcc_runtime.Obs.make
      ~has_token:(is_root h s ~self:p)
      Snapcc_runtime.Obs.Looking
end

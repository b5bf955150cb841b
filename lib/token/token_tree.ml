(** The honest [TC] substrate: self-stabilizing DFS token circulation on
    arbitrary connected networks, in the style of the tree-wave (PIF)
    constructions the paper builds on [9,10,24–27].

    {!Leader} elects the minimum identifier and maintains a BFS spanning
    tree with published child lists.  On that tree, each process keeps a
    wave position [pos]:
    - [-1] — clean: the process' subtree is not being visited;
    - [0] — the process holds the token (DFS first visit);
    - [i] in [1..k] — the token is inside the subtree of its [i]-th child;
    - [k+1] — done: the subtree has been fully visited (feedback).

    The unique legitimate token is the end of the {e consistent pointer
    chain} from the root (each link: the parent's [pos] names the child).
    A process engaged without its parent pointing at it is locally
    inconsistent and resets itself — so surplus tokens die through internal
    actions only, {e independently of whether the legitimate holder ever
    releases}: exactly Property 1's third requirement, and the reason a
    committee algorithm composed with this layer cannot be deadlocked by
    multiple post-fault token holders.

    [Token(p)] is a consistent [pos = 0]; [ReleaseToken(p)] starts the
    descent into the first child (or the feedback for a leaf).  All reads
    are local: parent and children are neighbors, and a neighbor's child
    count is the length of its published list. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

type state = {
  le : Leader.t;
  pos : int;  (** wave position: -1 clean, 0 token, 1..k in child i, k+1 done *)
}

let name = "token-tree"

let pp_state ppf s =
  Format.fprintf ppf "%a pos=%d" Leader.pp s.le s.pos

let equal_state (a : state) b = Leader.equal a.le b.le && a.pos = b.pos
let nchildren (s : state) = Array.length s.le.Leader.childs
let done_pos s = nchildren s + 1
let is_local_root h ~self (s : state) = Leader.is_root h s.le ~self

(* 1-based index of [child] in the parent's published list, 0 if absent. *)
let child_index (parent_state : state) ~child =
  let childs = parent_state.le.Leader.childs in
  let i = ref 0 in
  while !i < Array.length childs && childs.(!i) <> child do incr i done;
  if !i < Array.length childs then !i + 1 else 0

(* The parent's pointer names [p]: the link of the legitimate chain. *)
let engaged_ok h ~read ~get p =
  let sp : state = get (read p) in
  if is_local_root h ~self:p sp then true
  else begin
    let par = sp.le.Leader.par in
    if par < 0 || par >= H.n h || not (H.are_neighbors h p par) then false
    else
      let spar : state = get (read par) in
      let j = child_index spar ~child:p in
      j > 0 && spar.pos = j
  end

let has_token h ~read ~get p =
  let sp : state = get (read p) in
  sp.pos = 0 && engaged_ok h ~read ~get p

let release h ~read ~get p =
  let sp : state = get (read p) in
  if has_token h ~read ~get p then
    { sp with pos = (if nchildren sp >= 1 then 1 else done_pos sp) }
  else sp

(* The child currently visited, when valid; -1 otherwise. *)
let visited_child h ~read ~get p =
  let sp : state = get (read p) in
  if sp.pos >= 1 && sp.pos <= nchildren sp then begin
    let c = sp.le.Leader.childs.(sp.pos - 1) in
    if c >= 0 && c < H.n h && H.are_neighbors h p c then c else -1
  end
  else -1

let child_done h ~read ~get p =
  let c = visited_child h ~read ~get p in
  c >= 0
  &&
  let sc : state = get (read c) in
  sc.pos = done_pos sc

let internal_actions h ~get ~set : _ Model.action list =
  let self (ctx : _ Model.ctx) = ctx.Model.self in
  let me ctx : state = get (ctx.Model.read ctx.Model.self) in
  let put ctx (s : state) = set (ctx.Model.read ctx.Model.self) s in
  let engaged ctx = engaged_ok h ~read:ctx.Model.read ~get ctx.Model.self in
  [ (* token arrival: clean and named by the parent *)
    { Model.label = "TC-take";
      guard =
        (fun ctx ->
          let sp = me ctx in
          (not (is_local_root h ~self:(self ctx) sp))
          && sp.pos = -1
          && engaged ctx);
      apply = (fun ctx -> put ctx { (me ctx) with pos = 0 }) };
    (* feedback received: move the wave to the next child / to done *)
    { Model.label = "TC-advance";
      guard = (fun ctx -> child_done h ~read:ctx.Model.read ~get (self ctx));
      apply = (fun ctx -> put ctx { (me ctx) with pos = (me ctx).pos + 1 }) };
    (* the root regenerates the wave *)
    { Model.label = "TC-restart";
      guard =
        (fun ctx ->
          let sp = me ctx in
          is_local_root h ~self:(self ctx) sp
          && (sp.pos = -1 || sp.pos = done_pos sp));
      apply = (fun ctx -> put ctx { (me ctx) with pos = 0 }) };
    (* engaged without the parent's blessing: a surplus/bogus wave — die.
       This also cleans a finished subtree once the parent has advanced. *)
    { Model.label = "TC-abort";
      guard =
        (fun ctx ->
          let sp = me ctx in
          (not (is_local_root h ~self:(self ctx) sp))
          && sp.pos <> -1
          && not (engaged ctx));
      apply = (fun ctx -> put ctx { (me ctx) with pos = -1 }) };
    (* out-of-range positions (transient faults, child-list changes) *)
    { Model.label = "TC-clamp";
      guard = (fun ctx -> (me ctx).pos < -1 || (me ctx).pos > done_pos (me ctx));
      apply = (fun ctx -> put ctx { (me ctx) with pos = -1 }) };
  ]
  @ Leader.actions h
      ~get:(fun s -> (get s).le)
      ~set:(fun s le -> set s { (get s) with le })

let init h =
  let le_init = Leader.init h in
  fun p ->
    let le = le_init p in
    { le; pos = (if Leader.is_root h le ~self:p then 0 else -1) }

let random_init h rng p =
  let le = Leader.random_init h rng p in
  (* range [-2 .. k+2] exercises the clamp action too *)
  { le; pos = Random.State.int rng (Array.length le.Leader.childs + 5) - 2 }

(* Model-checking sub-domain: the legitimate spanning tree with every wave
   position.  The full leader domain (arbitrary lead/dist/par/childs) is
   astronomically larger and collapses to this one within O(n) rounds of
   self-disabling internal actions; the checker verifies that the declared
   sub-domain is closed under transitions and reports any escapee. *)
let domain h p =
  let le = Leader.init h p in
  List.init (Array.length le.Leader.childs + 3) (fun i -> { le; pos = i - 1 })

(* Structural transport: parent/children are vertex indices, [pos] in
   [1..k] is a 1-based index into the ordered child list, [lead] is a
   claimed leader identifier.  Whether leader election (minimum id!)
   actually commutes with [pi] is decided by the admission pass — this
   only needs to be the honest transport of the references. *)
let rename h ~pi p (s : state) =
  let le = s.le in
  let childs = Array.map (fun c -> pi.(c)) le.Leader.childs in
  Array.sort compare childs;
  let lead =
    match H.vertex_of_id h le.Leader.lead with
    | v -> H.id h pi.(v)
    | exception Not_found -> le.Leader.lead
  in
  let par =
    if le.Leader.par >= 0 && le.Leader.par < H.n h then pi.(le.Leader.par)
    else le.Leader.par
  in
  let le' = { le with Leader.lead; par; childs } in
  let pos =
    if s.pos >= 1 && s.pos <= Array.length le.Leader.childs then begin
      (* the visited child moves with pi; recover its 1-based rank in the
         re-sorted transported list *)
      let c' = pi.(le.Leader.childs.(s.pos - 1)) in
      let rank = ref s.pos in
      Array.iteri (fun i x -> if x = c' then rank := i + 1) childs;
      !rank
    end
    else s.pos
  in
  ignore p;
  { le = le'; pos }

let state_symmetries _h = []

type livelock = { witness : int; scc_size : int; cycle : int list list }

type verdict = {
  sccs : int;
  largest_scc : int;
  nontrivial_sccs : int;
  deadlocks : int list;
  livelocks : livelock list;
}

let ok v = v.deadlocks = [] && v.livelocks = []

(* A convene-free cycle witness -> ... -> witness (>= 1 edge) inside the
   component, by BFS over internal edges. *)
let find_cycle ~succs ~in_comp witness =
  let pred = Hashtbl.create 64 in
  let q = Queue.create () in
  let seed = ref [] in
  List.iter
    (fun (dst, sel) ->
      if in_comp dst then seed := (dst, sel) :: !seed)
    (succs witness);
  let found = ref None in
  List.iter
    (fun (dst, sel) ->
      if !found = None then
        if dst = witness then found := Some (dst, sel)
        else if not (Hashtbl.mem pred dst) then begin
          Hashtbl.add pred dst (witness, sel);
          Queue.add dst q
        end)
    (List.rev !seed);
  while !found = None && not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun (dst, sel) ->
        if !found = None && in_comp dst then
          if dst = witness then found := Some (v, sel)
          else if not (Hashtbl.mem pred dst) then begin
            Hashtbl.add pred dst (v, sel);
            Queue.add dst q
          end)
      (succs v)
  done;
  match !found with
  | None -> []  (* no internal cycle through the witness *)
  | Some (last, sel_last) ->
    let rec up v acc =
      if v = witness then acc
      else
        let u, sel = Hashtbl.find pred v in
        up u (Bitpack.bits_list sel :: acc)
    in
    up last [ Bitpack.bits_list sel_last ]

(* The members of the component rooted at [root], in the order the
   search visited them.  A search from the root that enters members only
   visits them in that order: a member is never reached through a
   non-member, since that one would then be a member too. *)
let visit_order ~succs ~in_comp root =
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen root ();
  let order = ref [ root ] in
  let stack = ref [ ref (succs root) ] in
  while !stack <> [] do
    let rest = List.hd !stack in
    match !rest with
    | [] -> stack := List.tl !stack
    | (w, _) :: tl ->
      rest := tl;
      if in_comp w && not (Hashtbl.mem seen w) then begin
        Hashtbl.add seen w ();
        order := w :: !order;
        stack := ref (succs w) :: !stack
      end
  done;
  List.rev !order

(* A vertex on the search path: the successors it has yet to try, and
   whether it is still the root of its component. *)
type frame = { v : int; mutable rest : (int * int) list; mutable root : bool }

(* Pearce's single-array search for strongly connected components
   ("A space-efficient algorithm for finding strongly connected
   components", IPL 2016), made iterative.  [rindex.(v)] is 0 until [v]
   is visited, then its visit index (from 1), lowered to the least index
   it reaches while its component is open, and once the component is
   complete the component's id, counting down from [n_configs - 1]: ids
   stay above every open index, so edges into complete components change
   nothing.  The last component may get id 0, the unvisited value, but
   only once every vertex is visited.  Components complete in the order
   Tarjan's algorithm finds them. *)
let analyze ~n ~n_configs ~succs ~convenes ~enabled_mask ~committee_waiting () =
  let rindex = Array.make n_configs 0 in
  (* visited vertices that are no root, their component still open *)
  let stack = Vec.create () in
  let index = ref 1 in
  let next_id = ref (n_configs - 1) in
  let n_sccs = ref 0 in
  let largest = ref 0 in
  let nontrivial = ref 0 in
  let livelocks = ref [] in
  let handle_scc id comp =
    incr n_sccs;
    let size = List.length comp in
    if size > !largest then largest := size;
    (* only members' successors are asked: those are members or in
       complete components, whose ids differ *)
    let in_comp v = rindex.(v) = id in
    let internal = ref [] in
    let has_convene = ref false in
    List.iter
      (fun v ->
        List.iter
          (fun (dst, sel) ->
            if in_comp dst then begin
              internal := (v, dst, sel) :: !internal;
              if convenes v dst then has_convene := true
            end)
          (succs v))
      comp;
    if !internal <> [] then begin
      incr nontrivial;
      if not !has_convene then begin
        (* weakly fair infinite run? *)
        let fair =
          List.for_all
            (fun p ->
              List.exists (fun v -> enabled_mask v land (1 lsl p) = 0) comp
              || List.exists
                   (fun (_, _, sel) -> sel land (1 lsl p) <> 0)
                   !internal)
            (List.init n Fun.id)
        in
        if fair then
          match
            List.find_opt committee_waiting
              (visit_order ~succs ~in_comp (List.hd comp))
          with
          | Some w ->
            livelocks :=
              { witness = w;
                scc_size = size;
                cycle = find_cycle ~succs ~in_comp w }
              :: !livelocks
          | None -> ()
      end
    end
  in
  let enter v =
    rindex.(v) <- !index;
    incr index;
    { v; rest = succs v; root = true }
  in
  (* [u] reaches [w]'s index *)
  let lower u w =
    if rindex.(w) < rindex.(u.v) then begin
      rindex.(u.v) <- rindex.(w);
      u.root <- false
    end
  in
  (* [v] is done: a root closes its component, the vertices of the
     stack down to its index, numbering them with the next id *)
  let finish { v; root; _ } =
    if not root then Vec.push stack v
    else begin
      let id = !next_id in
      let comp = ref [] in
      let top () = Vec.get stack (Vec.length stack - 1) in
      while Vec.length stack > 0 && rindex.(v) <= rindex.(top ()) do
        let w = Vec.pop stack in
        rindex.(w) <- id;
        decr index;
        comp := w :: !comp
      done;
      rindex.(v) <- id;
      decr index;
      decr next_id;
      handle_scc id (v :: !comp)
    end
  in
  let search v0 =
    let frames = ref [ enter v0 ] in
    while !frames <> [] do
      let f = List.hd !frames in
      match f.rest with
      | (w, _sel) :: tl ->
        f.rest <- tl;
        if rindex.(w) = 0 then frames := enter w :: !frames else lower f w
      | [] ->
        frames := List.tl !frames;
        finish f;
        (match !frames with u :: _ -> lower u f.v | [] -> ())
    done
  in
  for v = 0 to n_configs - 1 do
    if rindex.(v) = 0 then search v
  done;
  (* deadlocks *)
  let deadlocks = ref [] in
  for v = n_configs - 1 downto 0 do
    if enabled_mask v = 0 && committee_waiting v then deadlocks := v :: !deadlocks
  done;
  { sccs = !n_sccs;
    largest_scc = !largest;
    nontrivial_sccs = !nontrivial;
    deadlocks = !deadlocks;
    livelocks = !livelocks }

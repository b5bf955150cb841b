type livelock = { witness : int; scc_size : int; cycle : int list list }

type verdict = {
  sccs : int;
  largest_scc : int;
  nontrivial_sccs : int;
  deadlocks : int list;
  livelocks : livelock list;
}

let ok v = v.deadlocks = [] && v.livelocks = []

let bits_list mask =
  let rec go p m acc =
    if m = 0 then List.rev acc
    else go (p + 1) (m lsr 1) (if m land 1 = 1 then p :: acc else acc)
  in
  go 0 mask []

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
        up u (bits_list sel :: acc)
    in
    up last [ bits_list sel_last ]

let analyze ~n ~n_configs ~succs ~convenes ~enabled_mask ~committee_waiting () =
  let idx = Array.make n_configs (-1) in
  let low = Array.make n_configs 0 in
  (* a vertex leaves the stack exactly when [handle_scc] numbers it, so
     it is on the stack iff it has an index and no component yet *)
  let sccid = Array.make n_configs (-1) in
  let on_stack v = idx.(v) >= 0 && sccid.(v) < 0 in
  let stack = Vec.create () in
  let counter = ref 0 in
  let n_sccs = ref 0 in
  let largest = ref 0 in
  let nontrivial = ref 0 in
  let livelocks = ref [] in
  let handle_scc comp =
    let id = !n_sccs in
    incr n_sccs;
    List.iter (fun v -> sccid.(v) <- id) comp;
    let size = List.length comp in
    if size > !largest then largest := size;
    let in_comp v = sccid.(v) = id in
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
        let witness = List.find_opt committee_waiting comp in
        match (fair, witness) with
        | true, Some w ->
          livelocks :=
            { witness = w;
              scc_size = size;
              cycle = find_cycle ~succs ~in_comp w }
            :: !livelocks
        | _ -> ()
      end
    end
  in
  let dfs v0 =
    idx.(v0) <- !counter;
    low.(v0) <- !counter;
    incr counter;
    Vec.push stack v0;
    let frames = ref [ (v0, ref (succs v0)) ] in
    while !frames <> [] do
      let v, rest = List.hd !frames in
      match !rest with
      | (w, _sel) :: tl ->
        rest := tl;
        if idx.(w) = -1 then begin
          idx.(w) <- !counter;
          low.(w) <- !counter;
          incr counter;
          Vec.push stack w;
          frames := (w, ref (succs w)) :: !frames
        end
        else if on_stack w then low.(v) <- min low.(v) idx.(w)
      | [] ->
        frames := List.tl !frames;
        (match !frames with
        | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
        | [] -> ());
        if low.(v) = idx.(v) then begin
          let comp = ref [] in
          let brk = ref false in
          while not !brk do
            let w = Vec.pop stack in
            comp := w :: !comp;
            if w = v then brk := true
          done;
          handle_scc !comp
        end
    done
  in
  for v = 0 to n_configs - 1 do
    if idx.(v) = -1 then dfs v
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

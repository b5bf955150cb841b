(* Exact matching computations via bitmask backtracking.  Committees are
   bits of an [int]; [conflict.(i)] is the set of committees conflicting
   with [i] (excluding [i]).  All enumeration shares [iter_rec], which walks
   committees in index order and branches take/skip with two prunings:
   - skip is abandoned when no later unblocked committee can conflict with
     the skipped one (maximality would be unreachable);
   - the caller may abort via [prune] when the partial matching can no
     longer improve on its incumbent. *)

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let prepare h =
  let m = Hypergraph.m h in
  if m > 62 then invalid_arg "Matching: more than 62 committees";
  let conflict = Array.make m 0 in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j && Hypergraph.conflicting h i j then
        conflict.(i) <- conflict.(i) lor (1 lsl j)
    done
  done;
  let full = if m = 0 then 0 else (1 lsl m) - 1 in
  (m, conflict, full)

let above i = -1 lsl (i + 1) (* bits strictly greater than i *)

let iter_masks h ~prune f =
  let m, conflict, full = prepare h in
  let rec go i chosen blocked =
    if not (prune chosen) then
      if i = m then begin
        if chosen lor blocked = full then f chosen
      end
      else begin
        let bit = 1 lsl i in
        if blocked land bit <> 0 then go (i + 1) chosen blocked
        else begin
          go (i + 1) (chosen lor bit) (blocked lor conflict.(i));
          (* skip [i]: only viable if a later unblocked committee can block it *)
          if conflict.(i) land above i land lnot blocked <> 0 then
            go (i + 1) chosen (blocked lor bit)
        end
      end
  in
  go 0 0 0

(* The skip-branch marks [i] blocked so the maximality test at the leaf
   treats it as conflicting-with-chosen; soundness requires that some chosen
   later committee indeed conflicts with it, which we re-check at the leaf
   against the real conflict sets. *)
let iter_maximal_masks h f =
  let _, conflict, _ = prepare h in
  let genuinely_maximal chosen =
    let m = Array.length conflict in
    let ok = ref true in
    for i = 0 to m - 1 do
      if chosen land (1 lsl i) = 0 && conflict.(i) land chosen = 0 then ok := false
    done;
    !ok
  in
  iter_masks h ~prune:(fun _ -> false) (fun mask ->
      if genuinely_maximal mask then f mask)

let mask_to_list mask =
  let rec go i acc =
    if 1 lsl i > mask then List.rev acc
    else go (i + 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 0 []

let iter_maximal_matchings h f = iter_maximal_masks h (fun m -> f (mask_to_list m))
let maximal_matchings h =
  let acc = ref [] in
  iter_maximal_matchings h (fun m -> acc := m :: !acc);
  List.rev !acc

let is_matching h eids =
  let rec go = function
    | [] -> true
    | e :: rest ->
      List.for_all (fun e' -> not (Hypergraph.conflicting h e e')) rest && go rest
  in
  List.length (List.sort_uniq compare eids) = List.length eids && go eids

let is_maximal_matching h eids =
  is_matching h eids
  && (let chosen e = List.mem e eids in
      let extendable e =
        (not (chosen e))
        && List.for_all (fun e' -> not (Hypergraph.conflicting h e e')) eids
      in
      not (Array.exists (fun (ed : Hypergraph.edge) -> extendable ed.eid) (Hypergraph.edges h)))

let min_maximal_matching h =
  let best = ref max_int in
  let _, conflict, _ = prepare h in
  iter_masks h
    ~prune:(fun chosen -> popcount chosen >= !best)
    (fun mask ->
      (* re-check genuine maximality (skip-branch bookkeeping is optimistic) *)
      let m = Array.length conflict in
      let ok = ref true in
      for i = 0 to m - 1 do
        if mask land (1 lsl i) = 0 && conflict.(i) land mask = 0 then ok := false
      done;
      if !ok then best := min !best (popcount mask));
  if !best = max_int then 0 else !best

let max_matching h =
  let best = ref 0 in
  iter_maximal_masks h (fun mask -> best := max !best (popcount mask));
  !best

let greedy_maximal_matching ?order h =
  let m = Hypergraph.m h in
  let order = match order with None -> Array.init m Fun.id | Some o -> o in
  let chosen = ref [] in
  Array.iter
    (fun e ->
      if List.for_all (fun e' -> not (Hypergraph.conflicting h e e')) !chosen then
        chosen := e :: !chosen)
    order;
  List.sort compare !chosen

(* Minimum size of a maximal matching covering all vertices of [must_cover]
   (a vertex-index list); [None] when no maximal matching covers them. *)
let min_maximal_covering h ~must_cover =
  let best = ref max_int in
  let _, conflict, _ = prepare h in
  let covers mask =
    List.for_all
      (fun q ->
        let rec scan i =
          if 1 lsl i > mask then false
          else
            (mask land (1 lsl i) <> 0
             && Array.exists (fun v -> v = q) (Hypergraph.edge_members h i))
            || scan (i + 1)
        in
        scan 0)
      must_cover
  in
  iter_masks h
    ~prune:(fun chosen -> popcount chosen >= !best)
    (fun mask ->
      let m = Array.length conflict in
      let ok = ref true in
      for i = 0 to m - 1 do
        if mask land (1 lsl i) = 0 && conflict.(i) land mask = 0 then ok := false
      done;
      if !ok && covers mask then best := min !best (popcount mask));
  if !best = max_int then None else Some !best

(* Minimum matching size over the AMM family (§5.3): for each professor p,
   candidate committee ε (from [Emin_p], or all of [Ep] for the CC3
   variant), and proper subset y of ε containing p, take the maximal
   matchings of the subhypergraph induced by V \ y that cover ε \ y. *)
let min_over_amm h ~all_edges =
  let n = Hypergraph.n h in
  let seen = Hashtbl.create 64 in
  let best = ref max_int in
  for p = 0 to n - 1 do
    let candidates = if all_edges then Hypergraph.incident h p else Hypergraph.min_edges h p in
    Array.iter
      (fun eid ->
        let members = Array.to_list (Hypergraph.edge_members h eid) in
        let others = List.filter (fun q -> q <> p) members in
        let k = List.length others in
        (* subsets y = {p} ∪ s with s ⊊ others would allow s = others giving
           |y| = |ε|; exclude that full subset. *)
        for smask = 0 to (1 lsl k) - 1 do
          if smask <> (1 lsl k) - 1 || k = 0 then begin
            let s = List.filteri (fun i _ -> smask land (1 lsl i) <> 0) others in
            if k > 0 then begin
              let y = List.sort compare (p :: s) in
              let key = (List.sort compare members, y) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                match Hypergraph.restrict h ~removed:y with
                | None -> ()
                | Some hy ->
                  let must_cover = List.filter (fun q -> not (List.mem q y)) members in
                  (match min_maximal_covering hy ~must_cover with
                   | None -> ()
                   | Some sz -> best := min !best sz)
              end
            end
          end
        done)
      candidates
  done;
  if !best = max_int then None else Some !best

let min_mm_with_amm_gen h ~all_edges =
  let mm = min_maximal_matching h in
  match min_over_amm h ~all_edges with
  | None -> mm
  | Some amm -> min mm amm

let min_mm_with_amm h = min_mm_with_amm_gen h ~all_edges:false
let min_mm_with_amm' h = min_mm_with_amm_gen h ~all_edges:true

type bounds = {
  min_mm : int;
  max_matching : int;
  max_min : int;
  max_hedge : int;
  dfc_cc2 : int;
  dfc_cc3 : int;
  thm5_lower : int;
  thm8_lower : int;
}

let bounds h =
  let min_mm = min_maximal_matching h in
  let max_min = Hypergraph.max_min h in
  let max_hedge = Hypergraph.max_hedge h in
  {
    min_mm;
    max_matching = max_matching h;
    max_min;
    max_hedge;
    dfc_cc2 = min_mm_with_amm h;
    dfc_cc3 = min_mm_with_amm' h;
    (* the degree of fair concurrency is at least 1 by definition (§5.3) *)
    thm5_lower = max 1 (min_mm - max_min + 1);
    thm8_lower = max 1 (min_mm - max_hedge + 1);
  }

let pp_bounds ppf b =
  Format.fprintf ppf
    "@[<v>minMM=%d maxM=%d MaxMin=%d MaxHEdge=%d@ dfc(CC2)>=%d dfc(CC3)>=%d \
     thm5>=%d thm8>=%d@]"
    b.min_mm b.max_matching b.max_min b.max_hedge b.dfc_cc2 b.dfc_cc3
    b.thm5_lower b.thm8_lower

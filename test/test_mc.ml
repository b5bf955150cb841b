(* Exhaustive model checker (lib/mc): clean algorithms verify on small
   instances, deliberately broken variants yield minimized counterexamples
   that replay through the engine + monitors, and the weak-fairness
   progress analysis recognizes hand-built deadlocks and livelocks. *)

open Snapcc_mc
module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let single2 = Families.single 2
let triangle = Families.pair_ring 3

let system key =
  match Systems.find key with
  | Some e -> e
  | None -> Alcotest.failf "unknown system %s" key

(* ---- clean systems: full domain verified ---- *)

let exhaust key token h =
  let entry = system key in
  let module S = (val entry.Systems.make token) in
  let module C = Check.Make (S) in
  let c = C.run ~algo:key ~token ~topo:"-" h in
  let r = c.C.report in
  check (key ^ " exploration complete") true r.Report.complete;
  check (key ^ " explored the whole domain")
    true
    (float_of_int r.Report.configs >= r.Report.product);
  check (key ^ " domain closed under transitions") true
    (r.Report.escapees = 0 && Report.closure_judged r);
  check (key ^ " no safety violation") true (r.Report.safety_violations = 0);
  check (key ^ " progress checked") true r.Report.progress_checked;
  check (key ^ " no deadlock") true (r.Report.deadlocks = 0);
  check (key ^ " no livelock") true (r.Report.livelocks = 0);
  check (key ^ " passes without a counterexample") true
    (Report.outcome r = Report.Pass && c.C.cex = None)

let test_clean_cc1 () = exhaust "cc1" "vring" single2
let test_clean_cc2 () = exhaust "cc2" "vring" single2
let test_clean_cc3 () = exhaust "cc3" "vring" single2

(* cc1 over the null token on the conflict triangle: a larger instance
   (13824 initial configurations) exercising inter-committee conflicts. *)
let test_clean_cc1_null_triangle () = exhaust "cc1" "null" triangle

(* ---- broken variant: counterexample found, minimized, replayed ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_broken_found_and_replays () =
  let entry = system "cc1-noready" in
  let module S = (val entry.Systems.make "vring") in
  let module Ex = Explore.Make (S) in
  let module CexM = Counterexample.Make (S) in
  let h = single2 in
  let r = Ex.explore ~stop_on_first:true h in
  let v =
    match Ex.violations r with
    | v :: _ -> v
    | [] -> Alcotest.fail "cc1-noready: no violation found on single2"
  in
  Alcotest.(check string)
    "violated rule is synchronization" "synchronization" v.Explore.rule;
  let root, steps = Ex.path_to r v.Explore.source in
  let steps =
    steps
    @
    if v.Explore.mode >= 0 then [ (v.Explore.mode, v.Explore.selected) ]
    else []
  in
  let cex =
    Counterexample.of_safety ~algo:"cc1-noready" ~token:"vring" ~topo:"single2"
      ~rule:v.Explore.rule ~detail:v.Explore.detail ~init:root ~steps
  in
  (* the raw counterexample replays to the same Spec rule *)
  (match CexM.replay h cex with
  | CexM.Reproduced msg ->
    check "replay names the rule" true (contains msg "synchronization")
  | CexM.Not_reproduced msg | CexM.Invalid msg ->
    Alcotest.failf "raw counterexample did not replay: %s" msg);
  (* minimization keeps it reproducing and is idempotent *)
  let m1 = CexM.minimize h cex in
  check "minimized still reproduces" true
    (match CexM.replay h m1 with CexM.Reproduced _ -> true | _ -> false);
  check "minimization shrinks or preserves" true
    (List.length m1.Counterexample.steps <= List.length cex.Counterexample.steps);
  let m2 = CexM.minimize h m1 in
  check "minimization idempotent" true (m1 = m2)

let test_cex_file_roundtrip () =
  let entry = system "cc1-noready" in
  let module S = (val entry.Systems.make "vring") in
  let module Ex = Explore.Make (S) in
  let h = single2 in
  let r = Ex.explore ~stop_on_first:true h in
  let v = List.hd (Ex.violations r) in
  let root, steps = Ex.path_to r v.Explore.source in
  let steps =
    steps
    @
    if v.Explore.mode >= 0 then [ (v.Explore.mode, v.Explore.selected) ]
    else []
  in
  let cex =
    Counterexample.of_safety ~algo:"cc1-noready" ~token:"vring" ~topo:"single2"
      ~rule:v.Explore.rule ~detail:v.Explore.detail ~init:root ~steps
  in
  let file = Filename.temp_file "ccsim-cex" ".txt" in
  Counterexample.to_file file cex;
  let back = Counterexample.of_file file in
  Sys.remove file;
  check "counterexample file round-trips" true (cex = back)

(* ---- Check: the witness of a failing run, and --sample roots ---- *)

let test_check_broken () =
  let entry = system "cc1-noready" in
  let module S = (val entry.Systems.make "vring") in
  let module C = Check.Make (S) in
  let module CexM = Counterexample.Make (S) in
  let c = C.run ~algo:"cc1-noready" ~token:"vring" ~topo:"single2" single2 in
  check "fails" true (Report.outcome c.C.report = Report.Fail);
  match c.C.cex with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
    check "a synchronization witness" true
      (cex.Counterexample.kind = Counterexample.Safety "synchronization");
    check "already minimized" true (CexM.minimize single2 cex = cex);
    check "replays" true
      (match CexM.replay single2 cex with
      | CexM.Reproduced _ -> true
      | _ -> false)

(* A tree system's domain is the legitimate spanning tree with every wave
   position; [random_init] draws corrupted trees outside it, whose states
   are escapees of the roots, not closure failures.  Both instances pass
   exhaustively with no escapee; sampled, they must not fail on their own
   roots.  The counts are what `ccsim check --sample K --seed S` prints. *)
let test_sample_closure () =
  List.iter
    (fun (key, topo, h, sample, seed, escapees) ->
      let tag = Printf.sprintf "%s on %s, --sample %d" key topo sample in
      let entry = system key in
      let module S = (val entry.Systems.make "tree") in
      let module C = Check.Make (S) in
      let r = (C.run ~sample ~seed ~algo:key ~token:"tree" ~topo h).C.report in
      check (tag ^ ": roots outside the domain") true
        (r.Report.outside_roots > 0);
      check (tag ^ ": closure not judged") false (Report.closure_judged r);
      checki (tag ^ ": escapees kept") escapees r.Report.escapees;
      checki (tag ^ ": no safety violation") 0 r.Report.safety_violations;
      check (tag ^ ": passes") true (Report.outcome r = Report.Pass))
    [ ("cc1", "single2", single2, 3, 1, 30);
      ("cc2", "triangle3", triangle, 5, 3, 332) ]

(* `ccsim check --symmetry auto` stores one representative per orbit: the
   report and its JSON name the group order, so [configs] does not read as
   a full run of a quarter of the space.  cc1-vring on line3 admits the
   order-4 vring gauge. *)
let test_report_quotient () =
  let entry = system "cc1" in
  let module S = (val entry.Systems.make "vring") in
  let module C = Check.Make (S) in
  let module Tb = Tables.Make (S) in
  let module Adm = Snapcc_statics.Symmetry.Make (S) in
  let h = Families.by_name "line3" in
  let run ?tables ?symmetry () =
    (C.run ?tables ?symmetry ~algo:"cc1" ~token:"vring" ~topo:"line3" h)
      .C.report
  in
  let json_order r =
    Option.bind
      (Snapcc_telemetry.Json.member "symmetry_order" (Report.to_json r))
      Snapcc_telemetry.Json.to_int
  in
  let tables = Tb.build h in
  let group = (Adm.run h ~tables).Snapcc_statics.Symmetry.group in
  let quot = run ~tables ~symmetry:group () in
  checki "quotient: order" 4 quot.Report.symmetry_order;
  checki "quotient: orbit representatives" 98_304 quot.Report.configs;
  check "quotient: passes" true (Report.outcome quot = Report.Pass);
  Alcotest.(check (option int)) "quotient: JSON order" (Some 4) (json_order quot);
  let full = run () in
  checki "plain run: order" 1 full.Report.symmetry_order;
  checki "plain run: configurations" 393_216 full.Report.configs;
  Alcotest.(check (option int)) "plain run: JSON order" (Some 1) (json_order full)

(* ---- encoding: intern/find round-trip over the whole domain ---- *)

let test_encode_roundtrip () =
  let entry = system "cc1" in
  let module S = (val entry.Systems.make "vring") in
  let module Enc = Encode.Make (S) in
  let h = single2 in
  let enc = Enc.create h in
  check "no escapee after pre-interning" true (Enc.escapees enc = []);
  for p = 0 to H.n h - 1 do
    List.iter
      (fun s ->
        let id = Enc.intern enc p s in
        check "intern/state round-trip" true
          (S.equal_state (S.canon h p s) (Enc.state enc p id)))
      (S.domain h p)
  done;
  check "product counts the domain" true (Enc.product_size enc >= 2304.)

(* ---- a key wider than one word ---- *)

(* cc3 over the tree token on ring6 packs 64 key bits into two words.
   The roots are the ones `ccsim check --sample 3 --seed 1` draws; the
   counts are pinned from the former store, which keyed this instance by
   byte strings. *)
let test_wide_key () =
  let entry = system "cc3" in
  let module S = (val entry.Systems.make "tree") in
  let module Enc = Encode.Make (S) in
  let module Ex = Explore.Make (S) in
  let h = Families.pair_ring 6 in
  let enc = Enc.create h in
  checki "two key words" 2 (Enc.key_words enc);
  (* Process 5's field straddles the word boundary, and only ids in the
     escapee headroom (up to 4x the domain) set its high bits: draw ids
     over that whole range.  5000 keys also cross a rehash. *)
  let tb = Enc.table enc in
  let draw = Random.State.make [| 7 |] in
  let cfgs =
    List.init 5000 (fun _ ->
        Array.init (H.n h) (fun p ->
            Random.State.int draw (4 * Enc.domain_count enc p)))
  in
  List.iter (fun cfg -> ignore (Enc.find_or_add tb cfg)) cfgs;
  checki "one id per distinct vector"
    (List.length (List.sort_uniq compare cfgs))
    (Enc.table_count tb);
  List.iter
    (fun cfg ->
      check "key round-trip" true
        (Enc.config_ids tb (Enc.find_or_add tb cfg) = cfg))
    cfgs;
  let rng = Random.State.make [| 1 |] in
  let canonical = Array.init (H.n h) (S.init h) in
  let roots =
    `States
      (canonical
      :: List.init 3 (fun _ -> Array.init (H.n h) (fun p -> S.random_init h rng p)))
  in
  let r = Ex.explore ~max_configs:20_000 ~roots h in
  check "capped, so incomplete" false (Ex.complete r);
  checki "states" 20_000 (Ex.n_configs r);
  checki "transitions" 641_402 (Ex.n_transitions r);
  checki "violations" 0 (List.length (Ex.violations r));
  let seen = Hashtbl.create 64 in
  for k = 0 to 40 do
    let cid = k * 487 in
    let ids = Ex.config_ids r cid in
    check "a distinct configuration per id" false (Hashtbl.mem seen ids);
    Hashtbl.add seen ids ();
    Array.iteri
      (fun p id ->
        check "ids round-trip" true
          (Ex.domain_index r p (Ex.domain_state r p id) = Some id))
      ids
  done

(* ---- the chunked vector against an array model ---- *)

type vec_op = Push of int | Pop of int | Get of int | Set of int * int

let vec_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Push k) (int_bound (Vec.chunk + 100)));
        (2, map (fun k -> Pop k) (int_bound (Vec.chunk + 100)));
        (2, map (fun i -> Get i) nat);
        (2, map2 (fun i x -> Set (i, x)) nat int) ])

(* Each program first pushes across two chunk boundaries, then runs
   bulk pushes and pops (which cross boundaries both ways), reads and
   writes; every step must agree with a plain array and a length. *)
let prop_vec_model =
  QCheck.Test.make ~name:"chunked vector agrees with an array model" ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) vec_op_gen))
    (fun ops ->
      let cap = (Vec.chunk * 16) + 1024 in
      let model = Array.make cap 0 and len = ref 0 in
      let v = Vec.create () in
      let push x =
        Vec.push v x;
        model.(!len) <- x;
        incr len
      in
      let ok = ref true in
      let agree i = if Vec.get v i <> model.(i) then ok := false in
      let apply = function
        | Push k ->
          for _ = 1 to min k (cap - !len) do
            push (!len * 7)
          done
        | Pop k ->
          for _ = 1 to min k !len do
            decr len;
            if Vec.pop v <> model.(!len) then ok := false
          done
        | Get i -> if !len > 0 then agree (i mod !len)
        | Set (i, x) ->
          if !len > 0 then begin
            Vec.set v (i mod !len) x;
            model.(i mod !len) <- x
          end
      in
      List.iter apply (Push ((2 * Vec.chunk) + 1) :: ops);
      if Vec.length v <> !len then ok := false;
      for i = 0 to !len - 1 do
        agree i
      done;
      Vec.iteri (fun i x -> if x <> model.(i) then ok := false) v;
      !ok)

(* ---- fairness analysis on hand-built graphs ---- *)

let test_fairness_deadlock () =
  (* two configurations, no transitions; config 1 has a waiting committee *)
  let verdict =
    Fairness.analyze ~n:2 ~n_configs:2
      ~succs:(fun _ -> [])
      ~convenes:(fun _ _ -> false)
      ~enabled_mask:(fun _ -> 0)
      ~committee_waiting:(fun v -> v = 1)
      ()
  in
  checki "one deadlock" 1 (List.length verdict.Fairness.deadlocks);
  check "deadlock is config 1" true (verdict.Fairness.deadlocks = [ 1 ]);
  check "not ok" false (Fairness.ok verdict)

let test_fairness_livelock () =
  (* a 2-cycle where only process 0 ever executes, process 1 is never
     enabled, no convene, and a committee waits forever: a weakly fair
     livelock *)
  let verdict =
    Fairness.analyze ~n:2 ~n_configs:2
      ~succs:(fun v -> [ (1 - v, 0b01) ])
      ~convenes:(fun _ _ -> false)
      ~enabled_mask:(fun _ -> 0b01)
      ~committee_waiting:(fun _ -> true)
      ()
  in
  checki "one livelock" 1 (List.length verdict.Fairness.livelocks);
  let l = List.hd verdict.Fairness.livelocks in
  checki "SCC of two configurations" 2 l.Fairness.scc_size;
  check "cycle is non-empty" true (l.Fairness.cycle <> [])

let test_fairness_convene_breaks_livelock () =
  (* same 2-cycle, but one edge convenes a committee: progress is made *)
  let verdict =
    Fairness.analyze ~n:2 ~n_configs:2
      ~succs:(fun v -> [ (1 - v, 0b01) ])
      ~convenes:(fun src _ -> src = 0)
      ~enabled_mask:(fun _ -> 0b01)
      ~committee_waiting:(fun _ -> true)
      ()
  in
  check "convening cycle is not a livelock" true
    (verdict.Fairness.livelocks = []);
  check "ok" true (Fairness.ok verdict)

(* A cross edge into a finished component must not merge it into the
   component on the stack: from 0, the sink 1 is numbered before 2 is
   visited, and 2 → 1 is such an edge. *)
let test_fairness_cross_edge () =
  let succs = function 0 -> [ (1, 1); (2, 1) ] | 2 -> [ (1, 1) ] | _ -> [] in
  let verdict =
    Fairness.analyze ~n:1 ~n_configs:3 ~succs
      ~convenes:(fun _ _ -> false)
      ~enabled_mask:(fun _ -> 1)
      ~committee_waiting:(fun _ -> false)
      ()
  in
  checki "three components" 3 verdict.Fairness.sccs;
  checki "none nontrivial" 0 verdict.Fairness.nontrivial_sccs

(* ---- the SCC pass against a naive reference ---- *)

(* A random in+out graph: successors with selections (duplicates to one
   destination allowed), a convene flag per (source, destination), and
   per vertex an enabled mask and whether a committee waits. *)
type graph = {
  procs : int;
  adj : (int * int) list array;
  conv : (int * int, unit) Hashtbl.t;
  enabled : int array;
  waiting : bool array;
}

let shapes = [| "random"; "singletons"; "self-loops"; "one cycle"; "clusters" |]

let build_graph (shape, size, seed) =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let procs = 1 + int 3 in
  let adj = Array.make size [] in
  let edge u w = adj.(u) <- (w, 1 + int ((1 lsl procs) - 1)) :: adj.(u) in
  let random_edges k =
    Array.iteri (fun u _ -> for _ = 1 to int k do edge u (int size) done) adj
  in
  (match shapes.(shape) with
  | "random" -> random_edges 4
  | "singletons" ->
    (* edges only to lower ids: every vertex its own component *)
    Array.iteri (fun u _ -> if u > 0 then for _ = 1 to int 4 do edge u (int u) done) adj
  | "self-loops" ->
    random_edges 3;
    Array.iteri (fun u _ -> if int 3 = 0 then edge u u) adj
  | "one cycle" ->
    Array.iteri (fun u _ -> edge u ((u + 1) mod size)) adj;
    random_edges 2
  | _ ->
    (* cycles of consecutive vertices, and edges from each cycle to later
       ones only: the search finishes many cycles before an edge from
       another branch reaches them *)
    let last = Array.make size 0 in
    let u = ref 0 in
    while !u < size do
      let len = min (1 + int 5) (size - !u) in
      for v = !u to !u + len - 1 do
        last.(v) <- !u + len - 1;
        if len > 1 then edge v (if v = !u + len - 1 then !u else v + 1)
      done;
      u := !u + len
    done;
    Array.iteri
      (fun v _ ->
        for _ = 1 to int 3 do
          if last.(v) + 1 < size then edge v (last.(v) + 1 + int (size - last.(v) - 1))
        done)
      adj);
  let density = [| 0; 3; 40 |].(int 3) in
  let conv = Hashtbl.create 64 in
  Array.iteri
    (fun u succs ->
      List.iter
        (fun (w, _) -> if int 100 < density then Hashtbl.replace conv (u, w) ())
        succs)
    adj;
  { procs;
    adj;
    conv;
    enabled = Array.init size (fun _ -> if int 4 = 0 then 0 else int (1 lsl procs));
    waiting = Array.init size (fun _ -> int 2 = 0) }

let analyze g =
  Fairness.analyze ~n:g.procs ~n_configs:(Array.length g.adj)
    ~succs:(fun v -> g.adj.(v))
    ~convenes:(fun u w -> Hashtbl.mem g.conv (u, w))
    ~enabled_mask:(fun v -> g.enabled.(v))
    ~committee_waiting:(fun v -> g.waiting.(v))
    ()

(* Components from mutual reachability; a livelock's witness is the
   member a depth-first search over the vertices in order, taking
   successors in order, visits first among those with a waiting
   committee. *)
let reference g =
  let size = Array.length g.adj in
  let reach =
    Array.init size (fun s ->
        let seen = Array.make size false in
        let rec go v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter (fun (w, _) -> go w) g.adj.(v)
          end
        in
        go s;
        seen)
  in
  let all = List.init size Fun.id in
  let comp v = List.filter (fun w -> reach.(v).(w) && reach.(w).(v)) all in
  let rep = Array.init size (fun v -> List.hd (comp v)) in
  let pre = Array.make size (-1) and clock = ref 0 in
  let rec visit v =
    if pre.(v) < 0 then begin
      pre.(v) <- !clock;
      incr clock;
      List.iter (fun (w, _) -> visit w) g.adj.(v)
    end
  in
  for v = 0 to size - 1 do
    visit v
  done;
  let reps = List.filter (fun v -> rep.(v) = v) all in
  let internal c =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun (w, sel) -> if rep.(w) = c then Some (u, w, sel) else None)
          g.adj.(u))
      (comp c)
  in
  let livelock c =
    let members = comp c and edges = internal c in
    let fair p =
      List.exists (fun v -> g.enabled.(v) land (1 lsl p) = 0) members
      || List.exists (fun (_, _, sel) -> sel land (1 lsl p) <> 0) edges
    in
    let waiting = List.filter (fun v -> g.waiting.(v)) members in
    if edges = [] || waiting = []
       || List.exists (fun (u, w, _) -> Hashtbl.mem g.conv (u, w)) edges
       || not (List.for_all fair (List.init g.procs Fun.id))
    then None
    else
      let first a b = if pre.(a) <= pre.(b) then a else b in
      Some (List.fold_left first (List.hd waiting) waiting, List.length members)
  in
  ( List.length reps,
    List.fold_left (fun acc c -> max acc (List.length (comp c))) 0 reps,
    List.length (List.filter (fun c -> internal c <> []) reps),
    List.filter (fun v -> g.enabled.(v) = 0 && g.waiting.(v)) all,
    List.sort compare (List.filter_map livelock reps),
    rep )

(* The selections of [cycle] lead from [w] back to [w] inside its
   component. *)
let closes g rep w cycle =
  let step from sel =
    let mask = List.fold_left (fun m p -> m lor (1 lsl p)) 0 sel in
    List.sort_uniq compare
      (List.concat_map
         (fun u ->
           List.filter_map
             (fun (v, s) -> if s = mask && rep.(v) = rep.(w) then Some v else None)
             g.adj.(u))
         from)
  in
  cycle <> [] && List.mem w (List.fold_left step [ w ] cycle)

let prop_scc_reference =
  QCheck.Test.make ~name:"SCC pass = mutual-reachability reference" ~count:300
    (QCheck.make
       ~print:(fun (shape, size, seed) ->
         Printf.sprintf "%s, %d vertices, seed %d" shapes.(shape) size seed)
       QCheck.Gen.(
         triple
           (int_bound (Array.length shapes - 1))
           (int_range 1 300) (int_bound 1_000_000)))
    (fun spec ->
      let g = build_graph spec in
      let v = analyze g in
      let sccs, largest, nontrivial, deadlocks, livelocks, rep = reference g in
      v.Fairness.sccs = sccs
      && v.Fairness.largest_scc = largest
      && v.Fairness.nontrivial_sccs = nontrivial
      && v.Fairness.deadlocks = deadlocks
      && List.sort compare
           (List.map
              (fun l -> (l.Fairness.witness, l.Fairness.scc_size))
              v.Fairness.livelocks)
         = livelocks
      && List.for_all
           (fun l -> closes g rep l.Fairness.witness l.Fairness.cycle)
           v.Fairness.livelocks)

(* ---- packed fields ---- *)

(* A value of [w] bits, all ones a quarter of the time. *)
let draw_bits rng w =
  let ones = (1 lsl w) - 1 in
  if Random.State.int rng 4 = 0 then ones
  else
    let bits = Random.State.bits in
    (bits rng lor (bits rng lsl 30) lor (bits rng lsl 60)) land ones

(* Records of random layouts, whose widths sum past one and two words:
   pushed with every field but two, those two set in place once every
   record is pushed (as the explorer sets a configuration's enabled mask
   and edge offset when it processes it), then fields overwritten at
   random.  Every field reads back what was last stored in it, a record
   unpacks to its fields, and packed into a scratch array it holds the
   same words. *)
let prop_bitpack_records =
  QCheck.Test.make ~name:"packed records round-trip" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) int int)
       QCheck.Gen.(
         triple (list_size (int_range 1 9) (int_range 0 62)) (int_range 1 300) int))
    (fun (widths, nrec, seed) ->
      let rng = Random.State.make [| seed |] in
      let widths = Array.of_list widths in
      let nf = Array.length widths in
      let l = Bitpack.layout widths in
      let v = Vec.create () in
      let model = Array.make_matrix nrec nf 0 in
      let late f = f = nf - 1 || f = nf / 2 in
      let store i f =
        let x = draw_bits rng widths.(f) in
        Bitpack.set l v i f x;
        model.(i).(f) <- x
      in
      for i = 0 to nrec - 1 do
        Bitpack.push l v;
        for f = 0 to nf - 1 do
          if not (late f) then store i f
        done
      done;
      for i = 0 to nrec - 1 do
        for f = 0 to nf - 1 do
          if late f then store i f
        done
      done;
      let agree () =
        let ok = ref (Vec.length v = nrec * Bitpack.words l) in
        for i = 0 to nrec - 1 do
          for f = 0 to nf - 1 do
            if Bitpack.get l v i f <> model.(i).(f) then ok := false
          done
        done;
        !ok
      in
      let pushed = agree () in
      for _ = 1 to 2 * nrec do
        store (Random.State.int rng nrec) (Random.State.int rng nf)
      done;
      let i = Random.State.int rng nrec in
      let scratch = Array.make (Bitpack.words l) (-1) in
      Bitpack.pack l scratch model.(i);
      pushed && agree ()
      && Bitpack.unpack l v i = model.(i)
      && Array.for_all2 ( = ) scratch
           (Array.init (Bitpack.words l) (fun j ->
                Vec.get v ((i * Bitpack.words l) + j))))

(* The widest edges the explorer packs: n = 16 and ids up to Encode's
   limit make 57-bit items, most of them straddling two words; every run
   of them reads back in order. *)
let prop_bitpack_edges =
  QCheck.Test.make ~name:"57-bit edges round-trip" ~count:100
    (QCheck.make ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair (int_range 1 2000) int))
    (fun (count, seed) ->
      let rng = Random.State.make [| seed |] in
      let width = Bitpack.width ((1 lsl Encode.id_bits) - 2) + 1 + 16 in
      let v = Vec.create () in
      let items =
        Array.init count (fun i ->
            let x =
              (((draw_bits rng Encode.id_bits lsl 1) lor Random.State.int rng 2) lsl 16)
              lor draw_bits rng 16
            in
            Bitpack.add_item v ~width i x;
            x)
      in
      let run lo hi = Bitpack.fold_items v ~width lo hi List.cons [] in
      let ok = ref (width = 57 && Vec.length v = ((count * width) + 61) / 62) in
      for _ = 1 to 20 do
        let lo = Random.State.int rng count in
        let hi = lo + Random.State.int rng (count - lo + 1) in
        if run lo hi <> Array.to_list (Array.sub items lo (hi - lo)) then ok := false
      done;
      !ok && run 0 count = Array.to_list items)

(* ---- table-driven fast path: identical results to the closure path ---- *)

(* Both paths share each configuration's scans, successors and verdicts
   across the input modes that behave alike, so beyond the totals they
   must agree on every configuration's in+out enabled set and
   transitions, and those must be the §2.2 step taken straight from the
   guard closures: every non-empty subset of the enabled processes, each
   selected process executing its priority action. *)
let test_tables_parity () =
  let module Model = Snapcc_runtime.Model in
  List.iter
    (fun (key, token) ->
      let entry = system key in
      let module S = (val entry.Systems.make token) in
      let module Tb = Tables.Make (S) in
      let module Ex = Explore.Make (S) in
      let tag = key ^ "/" ^ token in
      let actions = Array.of_list (S.actions single2) in
      let inputs = Explore.mode_inputs.(Explore.inout_mode) in
      let wrong_steps r =
        let wrong = ref 0 in
        for cid = 0 to Ex.n_configs r - 1 do
          let sts = Ex.states_of_config r cid in
          let ctx p =
            { Model.h = single2; inputs; read = Array.get sts; self = p }
          in
          let acts =
            Array.init (H.n single2) (fun p -> Model.priority actions (ctx p))
          in
          let en = ref 0 in
          Array.iteri (fun p i -> if i >= 0 then en := !en lor (1 lsl p)) acts;
          let succs = Ex.succs_inout r cid in
          let subsets =
            List.filter (fun s -> s land !en = s) (List.init !en succ)
          in
          if Ex.enabled_inout r cid <> !en
             || List.sort compare (List.map snd succs) <> subsets
          then incr wrong;
          List.iter
            (fun (dst, sel) ->
              Array.iteri
                (fun p id ->
                  let s =
                    if sel land (1 lsl p) = 0 then sts.(p)
                    else actions.(acts.(p)).Model.apply (ctx p)
                  in
                  if Ex.domain_index r p s <> Some id then incr wrong)
                (Ex.config_ids r dst))
            succs
        done;
        !wrong
      in
      let r0 = Ex.explore single2 in
      let tb = Tb.build single2 in
      check (tag ^ " tables stored for every process") true (Tb.built tb);
      let r1 = Ex.explore ~tables:tb single2 in
      checki (tag ^ " same configurations") (Ex.n_configs r0) (Ex.n_configs r1);
      checki (tag ^ " same transitions") (Ex.n_transitions r0)
        (Ex.n_transitions r1);
      check (tag ^ " same action counts") true
        (Ex.action_counts r0 = Ex.action_counts r1);
      check (tag ^ " same violations") true
        (Ex.violations r0 = Ex.violations r1);
      check (tag ^ " both complete") true (Ex.complete r0 && Ex.complete r1);
      let differ = ref 0 in
      for cid = 0 to Ex.n_configs r0 - 1 do
        if
          Ex.enabled_inout r0 cid <> Ex.enabled_inout r1 cid
          || Ex.succs_inout r0 cid <> Ex.succs_inout r1 cid
        then incr differ
      done;
      checki (tag ^ " same in+out graph, configuration by configuration") 0
        !differ;
      checki (tag ^ " in+out transitions are the closures' steps") 0
        (wrong_steps r0))
    [ ("cc1", "vring"); ("cc1", "tree"); ("cc2", "vring"); ("cc3", "vring");
      ("cc1-noready", "vring") ]

(* ---- row codes hand back every entry ---- *)

(* Rows that differ in one mode only: cell c sets mode (c mod nmodes) to
   c / nmodes and leaves the other modes at -1, so a coder comparing rows
   on fewer than every mode merges some of them. *)
let test_row_codes_round_trip () =
  let nm = Tables.nmodes and k = 2048 in
  let entry ~cell ~mode = if cell mod nm = mode then cell / nm else -1 in
  match
    Tables.of_rows ~support:[| 0 |] ~sizes:[| k * nm |] ~strides:[| 1 |] entry
  with
  | Error e -> Alcotest.failf "coding failed: %s" e
  | Ok tb ->
    checki "one code per distinct row" (k * nm)
      (Array.length tb.Tables.rows / nm);
    let wrong = ref 0 and order = ref 0 in
    for cell = 0 to Tables.ncells tb - 1 do
      let code = Tables.cell_code tb cell in
      if code <> cell then incr order;
      for mode = 0 to nm - 1 do
        if Tables.code_entry tb code ~mode <> entry ~cell ~mode then incr wrong
      done
    done;
    checki "codes in first-occurrence order" 0 !order;
    checki "every entry comes back" 0 !wrong

(* ---- a table past the row codes is streamed, and explored by closure ---- *)

(* Every cell of this fixture is a row of its own: on single2 each process
   has 260 states and one always-enabled action whose successor under
   input mode m is (a + m * b) mod 260, [a] its own state and [b] its
   partner's, so the 67,600 cells of a process hold 67,600 distinct rows,
   past the 65,536 row codes. *)
module Wide = struct
  module Model = Snapcc_runtime.Model
  module Obs = Snapcc_runtime.Obs

  type state = int

  let size = 260
  let name = "fixture-wide"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng size

  let actions _ =
    [ { Model.label = "spin";
        guard = (fun _ -> true);
        apply =
          (fun ctx ->
            let p = ctx.Model.self in
            let a = ctx.Model.read p and b = ctx.Model.read (1 - p) in
            (a + (Model.mode_of ctx.Model.inputs p * b)) mod size) } ]

  let observe _ _ _ = Obs.make Obs.Idle
  let domain _ _ = List.init size Fun.id
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

let test_rows_past_the_codes () =
  let module Tb = Tables.Make (Wide) in
  let module Ex = Explore.Make (Wide) in
  let tb = Tb.build single2 in
  for p = 0 to 1 do
    match Tb.status tb p with
    | `Streamed reason ->
      check
        (Printf.sprintf "p%d streamed for its rows: %s" p reason)
        true
        (contains reason "more than 65536 distinct rows")
    | `Built -> Alcotest.failf "p%d stored past the row codes" p
    | `Skipped r -> Alcotest.failf "p%d skipped: %s" p r
  done;
  check "every pass complete" true (Tb.complete tb);
  check "no table stored" false (Tb.built tb);
  checki "no entry served" (-2) (Tb.entry tb ~mode:1 ~proc:0 [| 3; 5 |]);
  let r0 = Ex.explore single2 in
  let r1 = Ex.explore ~tables:tb single2 in
  checki "every configuration" (Wide.size * Wide.size) (Ex.n_configs r1);
  checki "same configurations" (Ex.n_configs r0) (Ex.n_configs r1);
  checki "same transitions" (Ex.n_transitions r0) (Ex.n_transitions r1);
  check "same action counts" true (Ex.action_counts r0 = Ex.action_counts r1);
  check "same violations" true (Ex.violations r0 = Ex.violations r1);
  check "both complete" true (Ex.complete r0 && Ex.complete r1);
  let differ = ref 0 in
  for cid = 0 to Ex.n_configs r0 - 1 do
    if
      Ex.enabled_inout r0 cid <> Ex.enabled_inout r1 cid
      || Ex.succs_inout r0 cid <> Ex.succs_inout r1 cid
    then incr differ
  done;
  checki "same in+out graph, configuration by configuration" 0 !differ

(* ---- a full exploration with violations under every mode, pinned ---- *)

(* cc1-noready on single2, explored to the end over both paths: every
   mode repeats the synchronization failure, so the shared scans,
   successors and verdicts must still be recorded under each mode with
   that mode's own actions.  The figures come from expanding every mode
   afresh. *)
let test_noready_full () =
  let entry = system "cc1-noready" in
  let module S = (val entry.Systems.make "vring") in
  let module Tb = Tables.Make (S) in
  let module Ex = Explore.Make (S) in
  let per_mode r =
    List.init 5 (fun i ->
        List.length
          (List.filter
             (fun (v : Explore.violation) -> v.Explore.mode = i - 1)
             (Ex.violations r)))
  in
  List.iter
    (fun (path, r) ->
      checki (path ^ " configurations") 2_304 (Ex.n_configs r);
      checki (path ^ " transitions") 23_805 (Ex.n_transitions r);
      checki (path ^ " violations") 576 (List.length (Ex.violations r));
      check (path ^ " complete") true (Ex.complete r);
      check (path ^ " all synchronization") true
        (List.for_all
           (fun (v : Explore.violation) -> v.Explore.rule = "synchronization")
           (Ex.violations r));
      Alcotest.(check (list int))
        (path ^ " violations per mode (configuration-local, then 0..3)")
        [ 0; 144; 144; 144; 144 ] (per_mode r);
      Alcotest.(check (list (pair string int)))
        (path ^ " action counts")
        [ ("Step1", 567); ("Step21", 216); ("Step22", 108); ("Token1", 4_689);
          ("Token2", 4_572); ("Step31", 2_160); ("Step32", 1_008);
          ("Step4", 1_386); ("Stab1", 4_356); ("Stab2", 12_060) ]
        (Ex.action_counts r))
    [ ("closure", Ex.explore single2);
      ("tables", Ex.explore ~tables:(Tb.build single2) single2) ]

let suite =
  [ ( "mc",
      [ Alcotest.test_case "clean: cc1 on single2" `Quick test_clean_cc1;
        Alcotest.test_case "clean: cc2 on single2" `Quick test_clean_cc2;
        Alcotest.test_case "clean: cc3 on single2" `Quick test_clean_cc3;
        Alcotest.test_case "clean: cc1 (null token) on triangle" `Quick
          test_clean_cc1_null_triangle;
        Alcotest.test_case "broken: found, replayed, minimized" `Quick
          test_broken_found_and_replays;
        Alcotest.test_case "counterexample file round-trip" `Quick
          test_cex_file_roundtrip;
        Alcotest.test_case "check: broken witness minimized" `Quick
          test_check_broken;
        Alcotest.test_case "check: sampled roots outside the domain" `Quick
          test_sample_closure;
        Alcotest.test_case "check: the report names its quotient" `Quick
          test_report_quotient;
        Alcotest.test_case "encode round-trip" `Quick test_encode_roundtrip;
        Alcotest.test_case "wide key: cc3 (tree) on ring6" `Quick test_wide_key;
        QCheck_alcotest.to_alcotest ~long:false prop_vec_model;
        Alcotest.test_case "fairness: deadlock" `Quick test_fairness_deadlock;
        Alcotest.test_case "fairness: livelock" `Quick test_fairness_livelock;
        Alcotest.test_case "fairness: convene breaks livelock" `Quick
          test_fairness_convene_breaks_livelock;
        Alcotest.test_case "fairness: cross edge into a finished component"
          `Quick test_fairness_cross_edge;
        QCheck_alcotest.to_alcotest ~long:false prop_scc_reference;
        QCheck_alcotest.to_alcotest ~long:false prop_bitpack_records;
        QCheck_alcotest.to_alcotest ~long:false prop_bitpack_edges;
        Alcotest.test_case "table-driven fast path parity" `Quick
          test_tables_parity;
        Alcotest.test_case "row codes hand back every entry" `Quick
          test_row_codes_round_trip;
        Alcotest.test_case "rows past the 16-bit codes: streamed" `Quick
          test_rows_past_the_codes;
        Alcotest.test_case "full exploration: cc1-noready on single2" `Quick
          test_noready_full ] ) ]

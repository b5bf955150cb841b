(* Hypergraph structure, families, and matching theory (paper §2.1, §5.3). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Matching = Snapcc_hypergraph.Matching

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sorted_pairs l = List.sort compare l

(* --- construction and accessors ------------------------------------- *)

let test_fig1_structure () =
  let h = Families.fig1 () in
  check_int "n" 6 (H.n h);
  check_int "m" 5 (H.m h);
  (* identifiers are the paper's 1-based professors *)
  check_int "id of vertex 0" 1 (H.id h 0);
  check_int "vertex of id 6" 5 (H.vertex_of_id h 6);
  (* E_2 (vertex index 1): committees {1,2}, {1,2,3,4}, {2,4,5} *)
  check_int "degree of prof 2" 3 (H.degree h 1)

let test_fig1_underlying () =
  (* Fig. 1(b): EE = {12,13,14,23,24,25,34,36,45,46} in paper ids *)
  let h = Families.fig1 () in
  let adj = H.underlying h in
  let edges = ref [] in
  Array.iteri
    (fun v nbrs ->
      Array.iter
        (fun u -> if v < u then edges := (H.id h v, H.id h u) :: !edges)
        nbrs)
    adj;
  let expected =
    [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (2, 5); (3, 4); (3, 6); (4, 5); (4, 6) ]
  in
  Alcotest.(check (list (pair int int)))
    "underlying network of Fig. 1" expected
    (sorted_pairs !edges)

let test_invalid_inputs () =
  let expect_invalid name f =
    match f () with
    | exception H.Invalid _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid" name
  in
  expect_invalid "singleton committee" (fun () -> H.create ~n:3 [ [ 0 ]; [ 0; 1; 2 ] ]);
  expect_invalid "empty committee list" (fun () -> H.create ~n:2 []);
  expect_invalid "member out of range" (fun () -> H.create ~n:2 [ [ 0; 5 ] ]);
  expect_invalid "duplicate committee" (fun () -> H.create ~n:2 [ [ 0; 1 ]; [ 1; 0 ] ]);
  expect_invalid "uncovered professor" (fun () -> H.create ~n:3 [ [ 0; 1 ] ]);
  expect_invalid "disconnected network" (fun () ->
      H.create ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ]);
  expect_invalid "duplicate ids" (fun () ->
      H.create ~ids:[| 3; 3 |] ~n:2 [ [ 0; 1 ] ])

let test_neighbors_and_conflicts () =
  let h = Families.fig2 () in
  (* committees: e0={1,2}, e1={1,3,5}, e2={3,4} in paper ids *)
  check "e0 conflicts e1" true (H.conflicting h 0 1);
  check "e1 conflicts e2" true (H.conflicting h 1 2);
  check "e0 vs e2 disjoint" false (H.conflicting h 0 2);
  check "1 and 5 are neighbors" true
    (H.are_neighbors h (H.vertex_of_id h 1) (H.vertex_of_id h 5));
  check "2 and 4 are not neighbors" false
    (H.are_neighbors h (H.vertex_of_id h 2) (H.vertex_of_id h 4))

let test_min_edges () =
  let h = Families.fig4 () in
  (* professor 8 (vertex 7): committees {1,2,5,8} (size 4) and {8,9} (size 2) *)
  let v8 = H.vertex_of_id h 8 in
  check_int "minE of prof 8" 2 (H.min_edge_size h v8);
  let mins = H.min_edges h v8 in
  check_int "one minimal committee" 1 (Array.length mins);
  check_int "MaxMin of fig4" 4 (H.max_min h);
  check_int "MaxHEdge of fig4" 4 (H.max_hedge h)

let test_restrict () =
  let h = Families.fig2 () in
  (* removing professor 1 (vertex 0) kills committees {1,2} and {1,3,5} *)
  (match H.restrict h ~removed:[ 0 ] with
   | None -> Alcotest.fail "restriction should keep {3,4}"
   | Some h' ->
     check_int "one committee survives" 1 (H.m h');
     Alcotest.(check (array int)) "survivor is {3,4}" [| 2; 3 |] (H.edge_members h' 0));
  (* removing professor 3 (vertex 2) kills {1,3,5} and {3,4} *)
  (match H.restrict h ~removed:[ 2 ] with
   | None -> Alcotest.fail "restriction should keep {1,2}"
   | Some h' -> check_int "one committee survives" 1 (H.m h'));
  (* removing everything *)
  check "no surviving committee" true (H.restrict h ~removed:[ 0; 1; 2; 3; 4 ] = None)

let test_families_validity () =
  List.iter
    (fun (name, h) ->
      check (name ^ " nonempty") true (H.n h > 0 && H.m h > 0))
    (Families.all_named ());
  let r = Families.pair_ring 8 in
  check_int "ring8 committees" 8 (H.m r);
  let p = Families.path 5 in
  check_int "path5 committees" 4 (H.m p);
  let s = Families.star 6 in
  check_int "star committees" 5 (H.m s);
  let c = Families.clique 5 in
  check_int "clique5 committees" 10 (H.m c);
  let k = Families.k_uniform_ring ~n:6 ~k:3 in
  check_int "3-uniform ring committees" 6 (H.m k);
  check_int "by_name ring12" 12 (H.m (Families.by_name "ring12"));
  (match Families.by_name "nonsense" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unknown name should raise")

let test_random_family () =
  for seed = 0 to 9 do
    let h = Families.random ~seed ~n:10 ~m:8 in
    check "covered and connected" true (H.n h = 10 && H.m h >= 8)
  done

let test_shuffled_ids () =
  let h = Families.fig1 () in
  let h' = Families.with_shuffled_ids ~seed:7 h in
  check_int "same n" (H.n h) (H.n h');
  check_int "same m" (H.m h) (H.m h');
  (* ids are a permutation of 0..n-1 *)
  let ids = List.sort compare (List.init (H.n h') (H.id h')) in
  Alcotest.(check (list int)) "permutation" (List.init (H.n h') Fun.id) ids

(* --- the committee file format --------------------------------------- *)

module Io = Snapcc_hypergraph.Hypergraph_io

let test_io_roundtrip () =
  List.iter
    (fun (name, h) ->
      match Io.parse (Io.to_string h) with
      | Ok h' -> check (name ^ ": parse . to_string = id") true (H.equal h h')
      | Error msg -> Alcotest.failf "%s: roundtrip failed: %s" name msg)
    (Families.all_named ())

let test_io_parse () =
  let text =
    "# the paper's Fig. 2\nn 5\nids 1 2 3 4 5\ncommittee 1 2\n\
     committee 1 3 5   # the starving one\ncommittee 3 4\n"
  in
  (match Io.parse text with
   | Ok h -> check "fig2 from text" true (H.equal h (Families.fig2 ()))
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  let expect_error label text =
    match Io.parse text with
    | Ok _ -> Alcotest.failf "%s: expected an error" label
    | Error _ -> ()
  in
  expect_error "missing n" "committee 0 1\n";
  expect_error "unknown keyword" "n 2\nkommittee 0 1\n";
  expect_error "unknown identifier" "n 2\ncommittee 0 7\n";
  expect_error "singleton committee" "n 2\ncommittee 0\n";
  expect_error "ids arity" "n 3\nids 1 2\ncommittee 1 2\n";
  expect_error "disconnected" "n 4\ncommittee 0 1\ncommittee 2 3\n"

(* Topology names and committee files come from outside the program (a
   counterexample's [topo] line, a file given to [-t]): both parsers refuse
   a system past the caps before building it, where [List.init n] alone
   would not finish. *)
let test_size_caps () =
  let refused name =
    match Families.by_name name with
    | _ -> Alcotest.failf "%s: expected a refusal" name
    | exception Invalid_argument _ -> ()
  in
  (* clique2000 has 2000 professors but 1,999,000 committees *)
  List.iter refused
    [ "ring99999999999"; "path1048578"; "line1048578"; "star1048578";
      "single1048577"; "clique2000"; "ring" ^ string_of_int max_int ];
  check "small parsed forms still build" true
    (H.equal (Families.by_name "clique5") (Families.clique 5));
  let refused_file label text =
    match Io.parse text with
    | Ok _ -> Alcotest.failf "%s: expected an error" label
    | Error _ -> ()
  in
  refused_file "n far past the cap" "n 99999999999\ncommittee 0 1\n";
  refused_file "n one past the cap"
    (Printf.sprintf "n %d\ncommittee 0 1\n" (H.max_professors + 1))

let test_io_file () =
  let path = Filename.temp_file "snapcc" ".committees" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path (Families.fig4 ());
      match Io.load path with
      | Ok h -> check "file roundtrip" true (H.equal h (Families.fig4 ()))
      | Error msg -> Alcotest.failf "load failed: %s" msg);
  match Io.load "/nonexistent/committees" with
  | Ok _ -> Alcotest.fail "expected a file error"
  | Error _ -> ()

(* --- matchings -------------------------------------------------------- *)

let test_matching_predicates () =
  let h = Families.fig2 () in
  check "e0+e2 is a matching" true (Matching.is_matching h [ 0; 2 ]);
  check "e0+e1 is not" false (Matching.is_matching h [ 0; 1 ]);
  check "e0+e2 maximal" true (Matching.is_maximal_matching h [ 0; 2 ]);
  check "e1 alone maximal" true (Matching.is_maximal_matching h [ 1 ]);
  check "e0 alone not maximal" false (Matching.is_maximal_matching h [ 0 ])

let test_fig2_matchings () =
  let h = Families.fig2 () in
  let mms = Matching.maximal_matchings h in
  Alcotest.(check (list (list int)))
    "maximal matchings of fig2"
    [ [ 0; 2 ]; [ 1 ] ]
    (List.sort compare mms);
  check_int "minMM" 1 (Matching.min_maximal_matching h);
  check_int "max matching" 2 (Matching.max_matching h)

let test_ring_matchings () =
  (* pair ring on 6: minMM = 2 ({01,34} e.g.), max = 3 *)
  let h = Families.pair_ring 6 in
  check_int "minMM ring6" 2 (Matching.min_maximal_matching h);
  check_int "maxM ring6" 3 (Matching.max_matching h);
  (* star: all committees conflict at the hub *)
  let s = Families.star 5 in
  check_int "minMM star" 1 (Matching.min_maximal_matching s);
  check_int "maxM star" 1 (Matching.max_matching s)

let test_greedy () =
  let h = Families.pair_ring 6 in
  let g = Matching.greedy_maximal_matching h in
  check "greedy is maximal" true (Matching.is_maximal_matching h g);
  let g' = Matching.greedy_maximal_matching ~order:[| 5; 4; 3; 2; 1; 0 |] h in
  check "reverse-order greedy is maximal" true (Matching.is_maximal_matching h g')

let test_single_committee_amm () =
  (* with one committee AMM = emptyset (paper §5.3 remark) and minMM = 1 *)
  let h = Families.single 3 in
  check_int "minMM" 1 (Matching.min_maximal_matching h);
  check_int "dfc bound" 1 (Matching.min_mm_with_amm h)

let test_bounds_consistency () =
  List.iter
    (fun (name, h) ->
      if H.m h <= 14 then begin
        let b = Matching.bounds h in
        check (name ^ ": dfc_cc2 <= minMM") true (b.Matching.dfc_cc2 <= b.Matching.min_mm);
        check (name ^ ": dfc_cc3 <= dfc_cc2") true (b.Matching.dfc_cc3 <= b.Matching.dfc_cc2);
        check
          (name ^ ": Theorem 5 bound holds")
          true
          (b.Matching.dfc_cc2 >= b.Matching.thm5_lower);
        check
          (name ^ ": Theorem 8 bound holds")
          true
          (b.Matching.dfc_cc3 >= b.Matching.thm8_lower);
        check (name ^ ": minMM <= maxM") true (b.Matching.min_mm <= b.Matching.max_matching)
      end)
    (Families.all_named ())

(* Independent, literal implementation of the §5.3 definitions, used to
   cross-check the optimized Matching.min_mm_with_amm computation: enumerate
   Y(ε,p), build H_y by restriction, enumerate its maximal matchings, filter
   by the Almost coverage condition, take the global minimum. *)
let naive_min_mm_amm ~all_edges h =
  let best = ref (Matching.min_maximal_matching h) in
  for p = 0 to H.n h - 1 do
    let candidates =
      if all_edges then Array.to_list (H.incident h p)
      else Array.to_list (H.min_edges h p)
    in
    List.iter
      (fun eid ->
        let members = Array.to_list (H.edge_members h eid) in
        let others = List.filter (fun q -> q <> p) members in
        let k = List.length others in
        (* proper subsets y of ε containing p *)
        for smask = 0 to (1 lsl k) - 2 do
          let y =
            p :: List.filteri (fun i _ -> smask land (1 lsl i) <> 0) others
          in
          match H.restrict h ~removed:y with
          | None -> ()
          | Some hy ->
            let must_cover = List.filter (fun q -> not (List.mem q y)) members in
            Matching.iter_maximal_matchings hy (fun m ->
                let covered q =
                  List.exists
                    (fun e ->
                      Array.exists (fun v -> v = q) (H.edge_members hy e))
                    m
                in
                if List.for_all covered must_cover then
                  best := min !best (List.length m))
        done)
      candidates
  done;
  !best

let test_amm_against_naive () =
  List.iter
    (fun (name, h) ->
      if H.m h <= 9 then begin
        check_int
          (name ^ ": Theorem 4 bound matches the literal definition")
          (naive_min_mm_amm ~all_edges:false h)
          (Matching.min_mm_with_amm h);
        check_int
          (name ^ ": Theorem 7 bound matches the literal definition")
          (naive_min_mm_amm ~all_edges:true h)
          (Matching.min_mm_with_amm' h)
      end)
    (Families.all_named ())

(* --- automorphisms (structural symmetry) ----------------------------- *)

module Auto = Snapcc_hypergraph.Automorphism

let group_order h =
  let elems, complete = Auto.group h in
  check "search complete" true complete;
  List.iter
    (fun p -> check "element is an automorphism" true (Auto.is_automorphism h p))
    elems;
  List.length elems

let test_auto_golden_orders () =
  (* ring_n is the n-cycle: dihedral group, order 2n *)
  check_int "ring4 order" 8 (group_order (Families.pair_ring 4));
  check_int "ring5 order" 10 (group_order (Families.pair_ring 5));
  check_int "ring6 order" 12 (group_order (Families.pair_ring 6));
  (* line_n: the single end-to-end reflection *)
  check_int "line3 order" 2 (group_order (Families.path 3));
  check_int "line5 order" 2 (group_order (Families.path 5));
  (* the conflict triangle is the 3-cycle: full S3 *)
  check_int "triangle order" 6 (group_order (Families.pair_ring 3));
  (* one committee of k professors: all k! permutations *)
  check_int "single2 order" 2 (group_order (Families.single 2));
  check_int "single3 order" 6 (group_order (Families.single 3));
  check_int "single4 order" 24 (group_order (Families.single 4));
  (* star: leaves permute freely around the centre *)
  check_int "star4 order" 6 (group_order (Families.star 4));
  (* clique: every pair is a committee, so S_n *)
  check_int "clique4 order" 24 (group_order (Families.clique 4))

let test_auto_generators_and_orbits () =
  let h = Families.pair_ring 5 in
  let elems, complete = Auto.group h in
  check "ring5 complete" true complete;
  let gens = Auto.generators ~n:5 elems in
  (* dihedral groups need exactly two generators *)
  check_int "ring5 generator count" 2 (List.length gens);
  let closed, complete = Auto.closure ~n:5 gens in
  check "closure complete" true complete;
  check_int "closure regenerates the group" (List.length elems) (List.length closed);
  (* vertex-transitive: a single orbit; same for edges *)
  check "ring5 vertex-transitive" true
    (Array.for_all (fun o -> o = 0) (Auto.orbits ~n:5 elems));
  check "ring5 edge-transitive" true
    (Array.for_all (fun o -> o = 0) (Auto.edge_orbits h elems));
  (* line3: ends fused, middle alone; middle edge... both edges fused *)
  let l = Families.path 3 in
  let lelems, _ = Auto.group l in
  Alcotest.(check (array int)) "line3 vertex orbits" [| 0; 1; 0 |]
    (Auto.orbits ~n:3 lelems);
  Alcotest.(check (array int)) "line3 edge orbits" [| 0; 0 |]
    (Auto.edge_orbits l lelems);
  (* edge_perm is consistent: image member set is the permuted member set *)
  List.iter
    (fun p ->
      let ep = Auto.edge_perm h p in
      Array.iter
        (fun (e : H.edge) ->
          let img = Array.map (fun v -> p.(v)) e.H.members in
          Array.sort compare img;
          Alcotest.(check (array int)) "edge image members" img
            (H.edge_members h ep.(e.H.eid)))
        (H.edges h))
    elems

let test_auto_asymmetric () =
  (* fig1 (the paper's running example) has no structural symmetry *)
  check_int "fig1 order" 1 (group_order (Families.fig1 ()));
  (* identifiers are ignored: shuffling ids must not change the group *)
  let h = Families.pair_ring 4 in
  let shuffled = Families.with_shuffled_ids ~seed:7 h in
  check_int "ids ignored" (group_order h) (group_order shuffled)

(* qcheck: random hypergraphs keep the matching algebra consistent *)
let qcheck_suite =
  let gen_h =
    QCheck.make
      ~print:(fun (seed, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" seed n m)
      QCheck.Gen.(triple (int_bound 1000) (int_range 4 9) (int_range 3 7))
  in
  [ QCheck.Test.make ~name:"maximal matchings are maximal matchings" ~count:60 gen_h
      (fun (seed, n, m) ->
        let h = Families.random ~seed ~n ~m in
        List.for_all (Matching.is_maximal_matching h) (Matching.maximal_matchings h));
    QCheck.Test.make ~name:"minMM is the min over the enumeration" ~count:60 gen_h
      (fun (seed, n, m) ->
        let h = Families.random ~seed ~n ~m in
        let mms = Matching.maximal_matchings h in
        let min_sz = List.fold_left (fun a l -> min a (List.length l)) max_int mms in
        Matching.min_maximal_matching h = min_sz);
    QCheck.Test.make ~name:"greedy matching size between minMM and maxM" ~count:60 gen_h
      (fun (seed, n, m) ->
        let h = Families.random ~seed ~n ~m in
        let g = List.length (Matching.greedy_maximal_matching h) in
        Matching.min_maximal_matching h <= g && g <= Matching.max_matching h);
    QCheck.Test.make ~name:"io round-trips every generated family" ~count:120 gen_h
      (fun (seed, n, m) ->
        let h = Families.with_shuffled_ids ~seed (Families.random ~seed ~n ~m) in
        match Snapcc_hypergraph.Hypergraph_io.parse
                (Snapcc_hypergraph.Hypergraph_io.to_string h)
        with
        | Ok h' -> H.equal h h'
        | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e);
    QCheck.Test.make ~name:"automorphisms preserved by id shuffling" ~count:20
      QCheck.(make ~print:string_of_int Gen.(int_bound 1000))
      (fun seed ->
        let h = Families.random ~seed ~n:6 ~m:5 in
        let elems, _ = Auto.group h in
        let elems', _ = Auto.group (Families.with_shuffled_ids ~seed h) in
        List.length elems = List.length elems'
        && List.for_all (Auto.is_automorphism h) elems);
    QCheck.Test.make ~name:"restrict preserves membership" ~count:60 gen_h
      (fun (seed, n, m) ->
        let h = Families.random ~seed ~n ~m in
        match H.restrict h ~removed:[ 0 ] with
        | None -> true
        | Some h' ->
          Array.for_all
            (fun (e : H.edge) -> not (Array.exists (fun v -> v = 0) e.H.members))
            (H.edges h'));
  ]

let suite =
  [ ( "hypergraph",
      [ Alcotest.test_case "fig1 structure" `Quick test_fig1_structure;
        Alcotest.test_case "fig1 underlying network" `Quick test_fig1_underlying;
        Alcotest.test_case "invalid inputs rejected" `Quick test_invalid_inputs;
        Alcotest.test_case "neighbors and conflicts" `Quick test_neighbors_and_conflicts;
        Alcotest.test_case "min edges / MaxMin / MaxHEdge" `Quick test_min_edges;
        Alcotest.test_case "restriction" `Quick test_restrict;
        Alcotest.test_case "families validity" `Quick test_families_validity;
        Alcotest.test_case "random family" `Quick test_random_family;
        Alcotest.test_case "shuffled identifiers" `Quick test_shuffled_ids;
        Alcotest.test_case "file format roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "file format parsing" `Quick test_io_parse;
        Alcotest.test_case "file format on disk" `Quick test_io_file;
        Alcotest.test_case "topology size caps" `Quick test_size_caps;
        Alcotest.test_case "automorphism golden orders" `Quick test_auto_golden_orders;
        Alcotest.test_case "automorphism generators and orbits" `Quick
          test_auto_generators_and_orbits;
        Alcotest.test_case "automorphism asymmetric cases" `Quick test_auto_asymmetric;
      ] );
    ( "matching",
      [ Alcotest.test_case "matching predicates" `Quick test_matching_predicates;
        Alcotest.test_case "fig2 maximal matchings" `Quick test_fig2_matchings;
        Alcotest.test_case "ring and star matchings" `Quick test_ring_matchings;
        Alcotest.test_case "greedy maximality" `Quick test_greedy;
        Alcotest.test_case "single committee AMM empty" `Quick test_single_committee_amm;
        Alcotest.test_case "bounds consistency on named families" `Slow
          test_bounds_consistency;
        Alcotest.test_case "AMM bounds match the literal definition" `Slow
          test_amm_against_naive;
      ] );
    ("matching:qcheck", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_suite);
  ]

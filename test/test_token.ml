(* The TC substrate: leader election, Euler-tour DFS token circulation,
   virtual-ring oracle — closure, convergence and Property 1 (§4.1). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Obs = Snapcc_runtime.Obs
module Leader = Snapcc_token.Leader
module Token_tree = Snapcc_token.Token_tree
module Token_vring = Snapcc_token.Token_vring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let topologies () =
  [ ("fig1", Families.fig1 ());
    ("fig3", Families.fig3 ());
    ("path6", Families.path 6);
    ("ring7", Families.pair_ring 7);
    ("star6", Families.star 6);
    ("shuffled-fig1", Families.with_shuffled_ids ~seed:3 (Families.fig1 ()));
  ]

(* --- leader election -------------------------------------------------- *)

module LE = Snapcc_runtime.Engine.Make (Leader.Algo)

let min_id h =
  List.fold_left min max_int (List.init (H.n h) (H.id h))

let test_leader_canonical_stable () =
  List.iter
    (fun (name, h) ->
      let eng = LE.create ~daemon:Daemon.synchronous h in
      check (name ^ ": canonical init is terminal") true
        (LE.is_terminal eng ~inputs:Model.no_inputs);
      check (name ^ ": stable predicate") true (Leader.stable h (LE.state eng)))
    (topologies ())

let converge_leader ~seed ~daemon h =
  let eng = LE.create ~seed ~daemon ~init:`Random h in
  let outcome =
    LE.run eng ~steps:(200 * H.n h * H.n h) ~inputs_at:(fun _ -> Model.no_inputs) ()
  in
  (outcome, eng)

let test_leader_convergence () =
  List.iter
    (fun (name, h) ->
      List.iter
        (fun daemon ->
          List.iter
            (fun seed ->
              let outcome, eng = converge_leader ~seed ~daemon h in
              check
                (Printf.sprintf "%s/%s/seed%d terminates" name (Daemon.name daemon) seed)
                true (outcome = `Terminal);
              check (name ^ ": converged to a stable tree") true
                (Leader.stable h (LE.state eng));
              (* the elected leader is the minimum identifier *)
              let lead0 = (LE.state eng 0).Leader.lead in
              check_int (name ^ ": min-id leader") (min_id h) lead0;
              (* everyone agrees *)
              for p = 1 to H.n h - 1 do
                check_int "agreement" lead0 (LE.state eng p).Leader.lead
              done;
              (* parent pointers form a spanning tree: n-1 non-root parents,
                 every child list consistent *)
              let root = H.vertex_of_id h (min_id h) in
              check_int "root has no parent" (-1) (LE.state eng root).Leader.par;
              for p = 0 to H.n h - 1 do
                if p <> root then begin
                  let par = (LE.state eng p).Leader.par in
                  check "parent is neighbor" true (H.are_neighbors h p par);
                  check_int "distance decreases" ((LE.state eng p).Leader.dist - 1)
                    (LE.state eng par).Leader.dist;
                  check "published in parent's child list" true
                    (Array.exists (fun c -> c = p) (LE.state eng par).Leader.childs)
                end
              done)
            [ 0; 1; 2 ])
        (Daemon.all_standard ()))
    (topologies ())

let test_leader_closure () =
  (* once stable, no action is ever enabled again *)
  let h = Families.fig1 () in
  let eng = LE.create ~daemon:(Daemon.random_subset ()) h in
  check "closure" true (LE.is_terminal eng ~inputs:Model.no_inputs)

(* --- token layers: generic checks over Layer.As_algo ------------------ *)

module type LAYER_TESTS = sig
  include Snapcc_token.Layer.S
end

let token_count obs = Array.fold_left (fun a (o : Obs.t) -> if o.Obs.has_token then a + 1 else a) 0 obs

module Layer_checks (T : LAYER_TESTS) = struct
  module A = Snapcc_token.Layer.As_algo (T)
  module E = Snapcc_runtime.Engine.Make (A)

  let unique_at_init h =
    let eng = E.create ~daemon:Daemon.synchronous h in
    token_count (E.obs eng) = 1

  (* run from a random configuration; after a burn-in, Property 1 must hold:
     never more than one Token(p), and every process holds it infinitely
     often (here: at least [laps] times within the horizon). *)
  let circulation ?(laps = 3) ~seed ~daemon h =
    let n = H.n h in
    let eng = E.create ~seed ~daemon ~init:`Random h in
    let burn_in = 400 * n * n in
    let horizon = burn_in + (600 * n * n) in
    let holds = Array.make n 0 in
    let max_simultaneous = ref 0 in
    let on_step eng (r : Model.step_report) =
      if r.Model.step >= burn_in then begin
        let obs = E.obs eng in
        max_simultaneous := max !max_simultaneous (token_count obs);
        Array.iteri
          (fun p (o : Obs.t) ->
            (* count actual acquisitions: a release by p means p held it *)
            ignore o;
            if List.mem_assoc p r.Model.executed
               && List.assoc p r.Model.executed = "T" then
              holds.(p) <- holds.(p) + 1)
          obs
      end
    in
    let _ = E.run eng ~steps:horizon ~inputs_at:(fun _ -> Model.no_inputs) ~on_step () in
    let everyone = Array.for_all (fun c -> c >= laps) holds in
    (!max_simultaneous <= 1, everyone)
end

module Tree_checks = Layer_checks (Token_tree)
module Vring_checks = Layer_checks (Token_vring)

let test_vring_init_unique () =
  List.iter
    (fun (name, h) ->
      check (name ^ ": unique initial token") true (Vring_checks.unique_at_init h))
    (topologies ())

let test_tree_init_unique () =
  List.iter
    (fun (name, h) ->
      check (name ^ ": unique initial token") true (Tree_checks.unique_at_init h))
    (topologies ())

let test_vring_property1 () =
  List.iter
    (fun (name, h) ->
      List.iter
        (fun seed ->
          let unique, everyone =
            Vring_checks.circulation ~seed ~daemon:(Daemon.random_subset ()) h
          in
          check (name ^ ": single token after stabilization") true unique;
          check (name ^ ": circulation reaches everyone") true everyone)
        [ 10; 11 ])
    [ ("fig1", Families.fig1 ()); ("path5", Families.path 5) ]

let test_tree_property1 () =
  List.iter
    (fun (name, h) ->
      List.iter
        (fun (seed, daemon) ->
          let unique, everyone = Tree_checks.circulation ~seed ~daemon h in
          check
            (Printf.sprintf "%s/%s: single token after stabilization" name
               (Daemon.name daemon))
            true unique;
          check
            (Printf.sprintf "%s/%s: circulation reaches everyone" name
               (Daemon.name daemon))
            true everyone)
        [ (20, Daemon.synchronous); (21, Daemon.random_subset ()); (22, Daemon.central ()) ])
    (topologies ())

let test_tree_dfs_order () =
  (* on a path with canonical init, the token visits processes in DFS
     (here: linear) order *)
  let h = Families.path 4 in
  let module E = Tree_checks.E in
  let eng = E.create ~daemon:Daemon.synchronous h in
  let visits = ref [] in
  let on_step _ (r : Model.step_report) =
    List.iter (fun (p, l) -> if l = "T" then visits := p :: !visits) r.Model.executed
  in
  let _ = E.run eng ~steps:120 ~inputs_at:(fun _ -> Model.no_inputs) ~on_step () in
  let v = List.rev !visits in
  (* root is min id = vertex 0; DFS of the path is 0,1,2,3 repeating *)
  check "at least two laps" true (List.length v >= 8);
  let rec prefix_ok = function
    | a :: b :: rest, x :: y :: more -> a = x && b = y && prefix_ok (rest, more)
    | _, [] -> true
    | _ -> true
  in
  ignore prefix_ok;
  let expected = [ 0; 1; 2; 3; 0; 1; 2; 3 ] in
  let taken = List.filteri (fun i _ -> i < 8) v in
  Alcotest.(check (list int)) "DFS visit order" expected taken

let test_release_without_token_is_noop () =
  let h = Families.path 3 in
  let init = Token_tree.init h in
  let states = Array.init (H.n h) init in
  let read = Array.get states in
  (* canonical init: token at the root (vertex 0) *)
  check "root holds" true (Token_tree.has_token h ~read ~get:Fun.id 0);
  check "non-root does not" false (Token_tree.has_token h ~read ~get:Fun.id 1);
  let s1 = Token_tree.release h ~read ~get:Fun.id 1 in
  check "release without token is identity" true (Token_tree.equal_state s1 (read 1))

(* The structural uniqueness argument behind the PIF wave: at most one
   process can hold a token whose parent chain is consistent, once the tree
   has stabilized.  We check it as an invariant over entire runs. *)
let test_consistent_chain_unique () =
  let h = Families.fig3 () in
  let module E = Tree_checks.E in
  List.iter
    (fun seed ->
      let eng = E.create ~seed ~init:`Random ~daemon:(Daemon.random_subset ()) h in
      let burn_in = 300 * H.n h in
      let violations = ref 0 in
      let on_step eng (r : Model.step_report) =
        if r.Model.step > burn_in then begin
          let read = E.state eng in
          let holders =
            List.filter
              (fun p -> Token_tree.has_token h ~read ~get:Fun.id p)
              (List.init (H.n h) Fun.id)
          in
          if List.length holders > 1 then incr violations
        end
      in
      let _ =
        E.run eng ~steps:(3 * burn_in) ~inputs_at:(fun _ -> Model.no_inputs)
          ~on_step ()
      in
      check_int (Printf.sprintf "seed %d: unique consistent token" seed) 0 !violations)
    [ 31; 32; 33 ]

(* qcheck: from arbitrary configurations on random topologies, the tree
   layer always converges to a unique circulating token *)
let qcheck_tree_stabilizes =
  QCheck.Test.make ~name:"token-tree stabilizes on random topologies" ~count:15
    (QCheck.make
       ~print:(fun (s, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" s n m)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 4 8) (int_range 3 6)))
    (fun (seed, n, m) ->
      let h = Families.random ~seed ~n ~m in
      let unique, everyone =
        Tree_checks.circulation ~laps:2 ~seed ~daemon:(Daemon.random_subset ()) h
      in
      unique && everyone)

let suite =
  [ ( "leader",
      [ Alcotest.test_case "canonical init stable" `Quick test_leader_canonical_stable;
        Alcotest.test_case "convergence (all daemons)" `Slow test_leader_convergence;
        Alcotest.test_case "closure" `Quick test_leader_closure;
      ] );
    ( "token",
      [ Alcotest.test_case "vring: unique initial token" `Quick test_vring_init_unique;
        Alcotest.test_case "tree: unique initial token" `Quick test_tree_init_unique;
        Alcotest.test_case "vring: Property 1" `Slow test_vring_property1;
        Alcotest.test_case "tree: Property 1" `Slow test_tree_property1;
        Alcotest.test_case "tree: DFS visit order" `Quick test_tree_dfs_order;
        Alcotest.test_case "release without token" `Quick test_release_without_token_is_noop;
        Alcotest.test_case "consistent chain uniqueness" `Quick
          test_consistent_chain_unique;
      ] );
    ("token:qcheck", [ QCheck_alcotest.to_alcotest ~long:false qcheck_tree_stabilizes ]);
  ]

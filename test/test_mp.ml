(* The message-passing substrate: channel discipline, scheduler fairness,
   locality, determinism, fault injection. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Obs = Snapcc_runtime.Obs
module X = Snapcc_experiments.Algos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module E = Snapcc_mp.Mp_engine.Make (X.Cc2)

let directed_links h =
  List.fold_left ( + ) 0 (List.init (H.n h) (H.graph_degree h))

let test_coalescing_channels () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:1 h in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 2_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    ignore (E.step eng ~inputs)
  done;
  (* links hold at most the latest snapshot each *)
  check "bounded channels" true (E.in_flight eng <= directed_links h);
  check "messages flowed" true (E.messages_delivered eng > 100);
  check "sends counted" true (E.messages_sent eng >= E.messages_delivered eng)

let test_scheduler_fairness () =
  (* even with a delivery-heavy bias, every process is activated and every
     link keeps delivering *)
  let h = Families.path 5 in
  let eng = E.create ~seed:3 ~deliver_bias:0.9 h in
  let activated = Array.make (H.n h) 0 in
  let delivered = Array.make (H.n h) 0 in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 4_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    match E.step eng ~inputs with
    | E.Activated (p, _) -> activated.(p) <- activated.(p) + 1
    | E.Delivered (p, _) -> delivered.(p) <- delivered.(p) + 1
  done;
  Array.iteri
    (fun p c -> check (Printf.sprintf "process %d activated" p) true (c > 10))
    activated;
  Array.iteri
    (fun p c -> check (Printf.sprintf "process %d received" p) true (c > 10))
    delivered;
  check_int "steps counted" 4_000 (E.steps_taken eng)

let test_determinism () =
  let h = Families.fig1 () in
  let run () =
    let eng = E.create ~seed:11 ~init:`Random h in
    let w = Snapcc_workload.Workload.always_requesting h in
    for _ = 1 to 3_000 do
      let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
      ignore (E.step eng ~inputs)
    done;
    (E.messages_delivered eng, E.messages_sent eng,
     Array.map (fun (o : Obs.t) -> o.Obs.status) (E.obs eng))
  in
  check "same seed, same run" true (run () = run ())

let test_corrupt () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:5 h in
  let before = E.obs eng in
  E.corrupt eng ~victims:(List.init (H.n h) Fun.id);
  let after = E.obs eng in
  check "corruption visible" true
    (Array.exists2 (fun a b -> not (Obs.equal a b)) before after)

let test_mp_cc2_serves_everyone () =
  let h = Families.fig1 () in
  let module R = Snapcc_experiments.Driver.Mp (X.Cc2) in
  let r, _ =
    R.run ~seed:7 ~init:`Random
      ~workload:(Snapcc_workload.Workload.always_requesting h) ~steps:30_000 h
  in
  Array.iteri
    (fun p c ->
      check (Printf.sprintf "professor %d served over message passing" (H.id h p))
        true (c > 0))
    r.Snapcc_experiments.Driver.participations;
  (* exclusion and synchronization must hold even over stale views *)
  List.iter
    (fun (v : Snapcc_analysis.Spec.violation) ->
      if v.Snapcc_analysis.Spec.rule = "exclusion"
         || v.Snapcc_analysis.Spec.rule = "synchronization"
      then
        Alcotest.failf "unexpected %s violation: %s" v.Snapcc_analysis.Spec.rule
          v.Snapcc_analysis.Spec.detail)
    r.Snapcc_experiments.Driver.violations

let test_max_staleness_grows () =
  let h = Families.fig1 () in
  let eng = E.create ~seed:9 ~deliver_bias:0.2 h in
  let w = Snapcc_workload.Workload.always_requesting h in
  for _ = 1 to 2_000 do
    let inputs = Snapcc_workload.Workload.inputs w (E.obs eng) in
    ignore (E.step eng ~inputs)
  done;
  check "runs are genuinely asynchronous" true (E.max_staleness eng > 5)

let suite =
  [ ( "message-passing",
      [ Alcotest.test_case "coalescing channels" `Quick test_coalescing_channels;
        Alcotest.test_case "scheduler progresses" `Quick test_scheduler_fairness;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "fault injection" `Quick test_corrupt;
        Alcotest.test_case "CC2/mp fairness + safety core" `Slow
          test_mp_cc2_serves_everyone;
        Alcotest.test_case "staleness exercised" `Quick test_max_staleness_grows;
      ] );
  ]

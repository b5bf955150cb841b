(* The benchmark's own arithmetic and gates, on fixtures whose answers are
   worked out independently (quartiles as Python's
   statistics.quantiles(xs, n=4) gives them). *)

module Json = Snapcc_telemetry.Json

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25) (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check pair "unsorted" (1.625, 6.5) (q [| 3.5; 1.25; 9.0; 4.0; 2.0 |]);
  (* two samples: the exclusive method extrapolates past the data *)
  Alcotest.check pair "two" (0., 6.) (q [| 5.; 1. |])

let test_percentile () =
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  let opt = Alcotest.(option close) in
  Alcotest.check opt "p50 of 20: rank 10, 10 beyond" (Some 10.) (Stats.percentile 0.5 (upto 20));
  Alcotest.check opt "p90 of 20: 2 beyond" None (Stats.percentile 0.9 (upto 20));
  Alcotest.check opt "p99 of 1000: rank 990, 10 beyond" (Some 990.)
    (Stats.percentile 0.99 (upto 1000));
  Alcotest.check opt "p99 of 999: 9 beyond" None (Stats.percentile 0.99 (upto 999));
  Alcotest.check opt "nearest rank, not interpolated" (Some 3.)
    (Stats.percentile 0.25 (Array.init 20 (fun i -> float_of_int ((i / 2) + 1))))

let test_slope () =
  Alcotest.check close "y = 3x^2" 2.
    (Stats.loglog_slope [ (1., 3.); (2., 12.); (4., 48.) ]);
  Alcotest.check (Alcotest.float 1e-9) "driver probe points" 1.096834205691448
    (Stats.loglog_slope [ (5., 12.5); (9., 23.3); (24., 69.7); (64., 203.) ])

let test_slices () =
  let sl = Alcotest.(array (pair int int)) in
  Alcotest.check sl "5 over 2" [| (0, 3); (3, 2) |] (Stats.slices ~workers:2 ~count:5);
  Alcotest.check sl "7 over 3" [| (0, 3); (3, 2); (5, 2) |] (Stats.slices ~workers:3 ~count:7);
  Alcotest.check sl "more workers than items" [| (0, 1); (1, 1) |]
    (Stats.slices ~workers:4 ~count:2);
  Alcotest.check close "uniform costs, uneven slices" 1.2
    (Stats.slice_imbalance ~workers:2 [| 1.; 1.; 1.; 1.; 1. |]);
  Alcotest.check close "heavy tail in slice 2" (9. /. 6.)
    (Stats.slice_imbalance ~workers:2 [| 1.; 1.; 1.; 1.; 8. |])

let test_self_time () =
  let sp = Spans.create ~capacity:4 [| "step"; "a"; "b" |] in
  let root = Spans.push sp ~name:0 ~parent:(-1) ~c0:0 ~c1:100 ~w:50 in
  ignore (Spans.push sp ~name:1 ~parent:root ~c0:0 ~c1:30 ~w:10);
  ignore (Spans.push sp ~name:2 ~parent:root ~c0:30 ~c1:90 ~w:35);
  let agg = Spans.aggregate sp in
  let self n = ((List.assoc n agg).Spans.self_ns, (List.assoc n agg).Spans.self_words) in
  let p = Alcotest.(pair int int) in
  Alcotest.check p "parent keeps the uncovered 10 ns" (10, 5) (self "step");
  Alcotest.check p "leaf a" (30, 10) (self "a");
  Alcotest.check p "leaf b" (60, 35) (self "b")

let check_rep ~configs =
  Json.Obj
    [ ("ops", Json.Int configs); ("wall_s", Json.Float 6.1); ("heap_mb", Json.Float 300.);
      ("complete", Json.Bool true); ("configs", Json.Int configs);
      ("transitions", Json.Int 20_532_592); ("violations", Json.Int 0);
      ("deadlocks", Json.Int 0); ("livelocks", Json.Int 0) ]

let test_gates () =
  let code reps =
    Gates.exit_code ~mismatches:[] (Gates.rep_gates ~workload:"check-triangle3" reps)
  in
  Alcotest.(check int) "expected counts pass" 0 (code [ check_rep ~configs:884_736 ]);
  Alcotest.(check int) "one state short fails the run" 1
    (code [ check_rep ~configs:884_736; check_rep ~configs:884_735 ]);
  Alcotest.(check int) "its states count as failed ops" 884_735
    (Gates.failed_ops ~workload:"check-triangle3" (check_rep ~configs:884_735));
  let rep ledger =
    Json.Obj [ ("ops", Json.Int 10); ("violations", Json.Int 0); ("ledger", Json.String ledger) ]
  in
  Alcotest.(check bool) "a repeated seed must reproduce its ledger" false
    (Gates.passed (Gates.repeat_gates ~workload:"run-ring24" (rep "a") (rep "b")));
  Alcotest.(check bool) "and passes when it does" true
    (Gates.passed (Gates.repeat_gates ~workload:"run-ring24" (rep "a") (rep "a")))

let test_declared () =
  let d =
    Declared.of_string
      {|{"workloads":[{"name":"w","why":"x"}],
         "end_to_end":[{"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.1}],
         "per_layer":[{"name":"a.ns","unit":"ns","better":"lower"}]}|}
  in
  match d with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check (list string)) "workloads" [ "w" ] d.workloads;
    Alcotest.(check (list string)) "agree" []
      (Declared.diff ~declared:d.end_to_end ~emitted:[ ("ops_per_s", "op/s") ]);
    let renamed = Declared.diff ~declared:d.end_to_end ~emitted:[ ("ops", "op/s") ] in
    Alcotest.(check int) "missing and extra both reported" 2 (List.length renamed);
    Alcotest.(check int) "unit drift reported" 1
      (List.length (Declared.diff ~declared:d.per_layer ~emitted:[ ("a.ns", "us") ]));
    let passing = [ Gates.make "g" true "" ] and failing = [ Gates.make "g" false "" ] in
    Alcotest.(check int) "a renamed metric exits 2" 2
      (Gates.exit_code ~mismatches:renamed passing);
    Alcotest.(check int) "a failed gate exits 1 first" 1
      (Gates.exit_code ~mismatches:renamed failing);
    Alcotest.(check int) "agreeing names exit 0" 0 (Gates.exit_code ~mismatches:[] passing)

let () =
  Alcotest.run "perf"
    [ ("stats",
       [ Alcotest.test_case "median" `Quick test_median;
         Alcotest.test_case "quartiles" `Quick test_quartiles;
         Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
         Alcotest.test_case "log-log slope" `Quick test_slope;
         Alcotest.test_case "pool slices" `Quick test_slices ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("gates",
       [ Alcotest.test_case "wrong count exits non-zero" `Quick test_gates;
         Alcotest.test_case "BENCHMARK.json names" `Quick test_declared ]) ]

(* Telemetry: JSON codec, typed events, instruments, sinks, and the
   run-trace/summary round trip.

   The load-bearing properties:
   - Event.of_json inverts Event.to_json for every variant;
   - JSONL traces are a deterministic function of the seed and never
     contain a timestamp;
   - Stats.of_events agrees with the online Metrics summary (convenes,
     nearest-rank waiting percentiles, mean concurrency), so
     `ccsim stats` reproduces `ccsim run --emit-json`;
   - the catapult export is valid JSON (by our own strict parser). *)

module Tele = Snapcc_telemetry
module Json = Tele.Json
module Event = Tele.Event
module Families = Snapcc_hypergraph.Families
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Metrics = Snapcc_analysis.Metrics
module X = Snapcc_experiments.Algos
module Driver = Snapcc_experiments.Driver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- JSON codec ---- *)

let test_json_roundtrip () =
  let samples =
    [ Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x01 é";
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj
        [ ("a", Json.Int 0);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]) ];
    ]
  in
  List.iter
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> check ("roundtrip " ^ Json.to_string j) true (j = j')
      | Error e -> Alcotest.failf "parse error on %s: %s" (Json.to_string j) e)
    samples;
  (* escapes produced by other tools *)
  (match Json.of_string {|{"s":"aAé 😀"}|} with
   | Ok (Json.Obj [ ("s", Json.String s) ]) ->
     check_str "unicode escapes" "aA\xc3\xa9 \xf0\x9f\x98\x80" s
   | Ok _ | Error _ -> Alcotest.fail "unicode escape parse");
  (* malformed inputs are rejected, not mangled *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_float_rendering () =
  check_str "integral float keeps the point" "{\"x\":2.0}"
    (Json.to_string (Json.Obj [ ("x", Json.Float 2.0) ]));
  check_str "non-finite floats become null" "[null,null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity;
                                 Json.Float neg_infinity ]))

(* ---- event codec: every variant must survive the round trip ---- *)

let all_events : Event.t list =
  [ Run_start { algo = "CC2"; daemon = "random(p=0.50)"; workload = "always";
                seed = 3; n = 6; m = 5; topo = "n 6\ncommittee 0 1\n" };
    Step { step = 1; round = 0; selected = [ 0; 2 ]; neutralized = [ 2 ];
           meetings = [ 1 ] };
    Action { step = 1; p = 0; label = "Step31" };
    Convene { step = 4; round = 2; eid = 1 };
    Terminate { step = 9; round = 3; eid = 1 };
    Wait_open { step = 2; round = 1; p = 3 };
    Wait_close { step = 8; round = 3; p = 3; waited_steps = 6; waited_rounds = 2 };
    Verdict { step = 5; rule = "exclusion"; detail = "e0 and e1 overlap" };
    Token_handoff { step = 6; p = 4 };
    Fault { step = 7; victims = [ 0; 1; 2 ] };
    Recover { step = 11; eid = 0 };
    Mc_frontier { configs = 16384; transitions = 99000 };
    Mp_activated { step = 3; p = 1; label = Some "Step21" };
    Mp_activated { step = 4; p = 2; label = None };
    Mp_delivered { step = 5; dst = 1; src = 2 };
    Run_end { outcome = "terminal"; steps = 100; rounds = 40 };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> check ("roundtrip " ^ Event.kind ev) true (ev = ev')
      | Error e -> Alcotest.failf "decode error on %s: %s" (Event.kind ev) e)
    all_events;
  (* the JSONL body also survives a textual round trip *)
  List.iter
    (fun ev ->
      match Json.of_string (Json.to_string (Event.to_json ev)) with
      | Ok j -> check "textual" true (Event.of_json j = Ok ev)
      | Error e -> Alcotest.failf "textual decode on %s: %s" (Event.kind ev) e)
    all_events;
  match Event.of_json (Json.Obj [ ("ev", Json.String "no_such_event") ]) with
  | Ok _ -> Alcotest.fail "unknown tag accepted"
  | Error _ -> ()

(* ---- the direct JSONL renderer against the tree printer ---- *)

(* [Sink.jsonl] renders without a [Json.t] tree; [Event.to_json] under
   [Json.to_string] is the reference it must equal byte for byte. *)
let reference_line (s : Event.stamped) =
  match Event.to_json s.Event.ev with
  | Json.Obj fields ->
    Json.to_string (Json.Obj (("seq", Json.Int s.Event.seq) :: fields)) ^ "\n"
  | _ -> Alcotest.fail "Event.to_json is not an object"

let direct_lines stamped =
  let lines = ref [] in
  let sink = Tele.Sink.jsonl (fun l -> lines := l :: !lines) in
  List.iter (Tele.Sink.emit sink) stamped;
  List.rev !lines

(* every byte that needs an escape, a UTF-8 operator and plain text *)
let nasty = "a\"b\\c\nd\re\tf\bg\012h\000i\001\031\127 \xe2\x88\x98 /"

let every_variant : Event.t list =
  [ Run_start { algo = "CC2\xe2\x88\x98vring"; daemon = "random(p=0.50)";
                workload = nasty; seed = min_int; n = 0; m = max_int;
                topo = "n 3\ncommittee 0 1\ncommittee 1 2\n" };
    Step { step = -1; round = 0; selected = []; neutralized = [ min_int ];
           meetings = [ 0; -7; max_int ] };
    Action { step = 10; p = 9; label = "" };
    Convene { step = 99; round = 100; eid = 101 };
    Terminate { step = -99; round = -100; eid = -101 };
    Wait_open { step = 1_000_000; round = 7; p = 0 };
    Wait_close { step = 8; round = 3; p = 3; waited_steps = max_int;
                 waited_rounds = min_int };
    Verdict { step = 5; rule = "essential-discussion"; detail = nasty };
    Token_handoff { step = 6; p = 4 };
    Fault { step = 7; victims = [] };
    Recover { step = 11; eid = 0 };
    Mc_frontier { configs = 16384; transitions = 99000 };
    Mp_activated { step = 3; p = 1; label = Some "Step\"21\"" };
    Mp_activated { step = 4; p = 2; label = None };
    Mp_delivered { step = 5; dst = 1; src = 2 };
    Net_sent { step = 12; src = 0; dst = 4; bytes = 35 };
    Net_delivered { step = 12; src = 0; dst = 4; bytes = 0; latency_us = -3 };
    Net_dropped { step = 13; src = 4; dst = 0; reason = "crc\tmismatch" };
    Clock { step = 14; p = 2; k = 3; clock = [ 1; 0; max_int ];
            obs_code = 0x7fff; disc = 0 };
    Clock { step = 15; p = 0; k = 0; clock = []; obs_code = 0; disc = -1 };
    Smc_trial { trial = 0; seed = min_int; stabilized = None; convenes = 0;
                violations = 3; deadlocked = true; steps = 150 };
    Smc_trial { trial = 1; seed = 42; stabilized = Some 17; convenes = 9;
                violations = 0; deadlocked = false; steps = 150 };
    Run_end { outcome = "steps_exhausted"; steps = 0; rounds = -0 } ]

let test_jsonl_renderer_matches_tree () =
  let kinds = List.sort_uniq compare (List.map Event.kind every_variant) in
  check_int "every variant covered" 20 (List.length kinds);
  let seqs = [ 0; 1; 9; 10; -1; -10; 123_456_789; min_int; max_int ] in
  let stamped =
    List.concat_map
      (fun seq ->
        List.map (fun ev -> { Event.seq; t_us = seq * 7; ev }) every_variant)
      seqs
  in
  List.iter2
    (fun s line ->
      check_str (Event.kind s.Event.ev) (reference_line s) line)
    stamped (direct_lines stamped)

(* random strings of any byte and random ints, through the variants that
   carry them *)
let prop_jsonl_renderer_random =
  QCheck.Test.make ~name:"jsonl renderer = tree printer (random fields)"
    ~count:300
    QCheck.(
      quad small_int (string_gen Gen.char) int (small_list int))
    (fun (seq, str, i, ints) ->
      let evs : Event.t list =
        [ Verdict { step = i; rule = str; detail = str ^ str };
          Run_start { algo = str; daemon = ""; workload = str; seed = i;
                      n = seq; m = -i; topo = str };
          Step { step = i; round = seq; selected = ints; neutralized = [];
                 meetings = List.rev ints };
          Clock { step = seq; p = i; k = 1; clock = ints; obs_code = i;
                  disc = seq };
          Mp_activated { step = i; p = seq;
                         label = (if i land 1 = 0 then None else Some str) } ]
      in
      let stamped = List.map (fun ev -> { Event.seq = seq - i; t_us = 0; ev }) evs in
      List.map reference_line stamped = direct_lines stamped)

(* ---- registry ---- *)

let test_registry () =
  let r = Tele.Registry.create () in
  let c = Tele.Registry.counter r "steps" in
  Tele.Registry.incr c;
  Tele.Registry.incr ~by:4 c;
  check_int "counter" 5 (Tele.Registry.counter_value c);
  check_int "get-or-create aliases" 5
    (Tele.Registry.counter_value (Tele.Registry.counter r "steps"));
  let g = Tele.Registry.gauge r "states_per_s" in
  Tele.Registry.set_gauge g 123.5;
  check "gauge" true (Tele.Registry.gauge_value g = 123.5);
  let h = Tele.Registry.histogram r "wait_steps" in
  (* nearest-rank edge cases: empty, singleton, all-equal *)
  check_int "empty p50" 0 (Tele.Registry.percentile 0.5 h);
  Tele.Registry.observe h 7;
  check_int "singleton p50" 7 (Tele.Registry.percentile 0.5 h);
  check_int "singleton p100" 7 (Tele.Registry.percentile 1.0 h);
  List.iter (fun _ -> Tele.Registry.observe h 7) [ 1; 2; 3 ];
  check_int "all-equal p90" 7 (Tele.Registry.percentile 0.9 h);
  check_int "count" 4 (Tele.Registry.hist_count h);
  (* same rule as the online Metrics helper, on a scrambled sample *)
  let sample = [ 9; 1; 5; 2; 8; 3; 7; 4; 6; 0 ] in
  let h2 = Tele.Registry.histogram r "sample" in
  List.iter (Tele.Registry.observe h2) sample;
  List.iter
    (fun q ->
      check_int
        (Printf.sprintf "agrees with Metrics at q=%.2f" q)
        (Metrics.percentile q sample)
        (Tele.Registry.percentile q h2))
    [ 0.0; 0.5; 0.9; 0.95; 0.99; 1.0 ];
  match Tele.Registry.to_json r with
  | Json.Obj [ ("counters", _); ("gauges", _); ("histograms", _) ] -> ()
  | j -> Alcotest.failf "snapshot shape: %s" (Json.to_string j)

(* ---- hub stamping and the ring sink ---- *)

let test_hub_and_ring () =
  let hub = Tele.Hub.create () in
  let ring = Tele.Sink.ring ~capacity:4 in
  Tele.Hub.add_sink hub ring;
  for i = 0 to 5 do
    Tele.Hub.emit hub (Event.Token_handoff { step = i; p = i })
  done;
  check_int "seq counts emissions" 6 (Tele.Hub.seq hub);
  let kept = Tele.Sink.ring_events ring in
  check_int "ring keeps the last capacity events" 4 (List.length kept);
  Alcotest.(check (list int))
    "chronological, most recent last" [ 2; 3; 4; 5 ]
    (List.map (fun (s : Event.stamped) -> s.Event.seq) kept);
  (* the default clock is logical: timestamp == seq, deterministic *)
  check "logical timestamps" true
    (List.for_all (fun (s : Event.stamped) -> s.Event.t_us = s.Event.seq) kept)

(* ---- JSONL determinism across same-seed runs ---- *)

let trace_lines ~seed () =
  let buf = Buffer.create 4096 in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string buf));
  let h = Families.fig1 () in
  let r =
    X.Run_cc2.run ~seed ~telemetry:hub ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~steps:400 h
  in
  Tele.Hub.close hub;
  (r, String.split_on_char '\n' (String.trim (Buffer.contents buf)))

let test_jsonl_deterministic () =
  let _, lines1 = trace_lines ~seed:11 () in
  let _, lines2 = trace_lines ~seed:11 () in
  check "same seed, byte-identical trace" true (lines1 = lines2);
  let _, lines3 = trace_lines ~seed:12 () in
  check "different seed, different trace" true (lines1 <> lines3);
  check "trace is non-trivial" true (List.length lines1 > 400);
  (* no wall-clock leaks into the bodies: the only stamps are logical *)
  List.iter
    (fun line ->
      check "no t_us in JSONL" false (contains line "\"t_us\"");
      check "no ts in JSONL" false (contains line "\"ts\"");
      match Json.of_string line with
      | Ok j -> (
        match Event.of_json j with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "undecodable line %s: %s" line e)
      | Error e -> Alcotest.failf "bad JSONL line %s: %s" line e)
    lines1

(* ---- stats: offline aggregation agrees with the online metrics ---- *)

let test_stats_agree_with_metrics () =
  let buf = Buffer.create 4096 in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string buf));
  let ring = Tele.Sink.ring ~capacity:1_000_000 in
  Tele.Hub.add_sink hub ring;
  let h = Families.fig1 () in
  let r =
    X.Run_cc2.run ~seed:7 ~telemetry:hub ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~steps:1500 h
  in
  Tele.Hub.close hub;
  let events =
    List.map (fun (s : Event.stamped) -> s.Event.ev) (Tele.Sink.ring_events ring)
  in
  let meta, summary = Tele.Stats.of_events events in
  let m = r.Driver.summary in
  check_int "convenes" m.Metrics.convenes summary.Tele.Stats.convenes;
  check_int "steps" r.Driver.steps summary.Tele.Stats.steps;
  check_int "max concurrency" m.Metrics.max_concurrency
    summary.Tele.Stats.max_concurrency;
  check "mean concurrency" true
    (abs_float (m.Metrics.mean_concurrency -. summary.Tele.Stats.mean_concurrency)
     < 1e-9);
  check_int "served waits" (List.length m.Metrics.completed_waits_steps)
    summary.Tele.Stats.waits_completed;
  List.iter
    (fun (q, got) ->
      check_int
        (Printf.sprintf "wait p%.0f" (q *. 100.))
        (Metrics.percentile q m.Metrics.completed_waits_steps)
        got)
    [ (0.5, summary.Tele.Stats.wait_p50); (0.9, summary.Tele.Stats.wait_p90);
      (0.95, summary.Tele.Stats.wait_p95) ];
  check "meta present" true (meta <> None);
  (match meta with
   | Some mt ->
     check_int "meta n" 6 mt.Tele.Stats.n;
     check_int "meta seed" 7 mt.Tele.Stats.seed
   | None -> ());
  (* the JSONL artifact aggregates to the same summary: ccsim stats
     reproduces ccsim run --emit-json by construction *)
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  (match Tele.Stats.of_jsonl lines with
   | Ok (meta', summary') ->
     check "offline meta matches" true (meta = meta');
     check "offline summary matches" true (summary = summary')
   | Error e -> Alcotest.failf "of_jsonl: %s" e);
  (* a corrupt line is reported with its position, not silently skipped *)
  match Tele.Stats.of_jsonl ("{oops" :: lines) with
  | Ok _ -> Alcotest.fail "corrupt line accepted"
  | Error e -> check "error names the line" true (contains e "1")

(* ---- trace telemetry respects fault boundaries ---- *)

let test_no_convene_fabricated_across_fault () =
  let h = Families.fig1 () in
  let hub = Tele.Hub.create () in
  let ring = Tele.Sink.ring ~capacity:1_000_000 in
  Tele.Hub.add_sink hub ring;
  let r =
    X.Run_cc2.run ~seed:3 ~telemetry:hub
      ~faults:(fun ~step -> if step = 200 then [ 0; 2; 4 ] else [])
      ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~steps:800 h
  in
  Tele.Hub.close hub;
  let events =
    List.map (fun (s : Event.stamped) -> s.Event.ev) (Tele.Sink.ring_events ring)
  in
  let _, summary = Tele.Stats.of_events events in
  check_int "one fault recorded" 1 summary.Tele.Stats.faults;
  (* the telemetry convene count still matches the online monitors, which
     exempt corruption-made meetings (§2.5): nothing fabricated *)
  check_int "convenes agree across the fault"
    r.Driver.summary.Metrics.convenes summary.Tele.Stats.convenes

(* ---- catapult export is valid JSON ---- *)

let test_catapult_valid () =
  let buf = Buffer.create 4096 in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub (Tele.Sink.catapult (Buffer.add_string buf));
  let h = Families.fig1 () in
  let _ =
    X.Run_cc2.run ~seed:5 ~telemetry:hub ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~steps:300 h
  in
  Tele.Hub.close hub;
  match Json.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "catapult export is not valid JSON: %s" e
  | Ok j ->
    (match Json.member "traceEvents" j with
     | Some (Json.List entries) ->
       check "has trace entries" true (entries <> []);
       List.iter
         (fun e ->
           check "every entry has a phase" true (Json.member "ph" e <> None);
           check "every entry has a timestamp" true (Json.member "ts" e <> None))
         entries
     | Some _ | None -> Alcotest.fail "no traceEvents array")

let suite =
  [ ( "telemetry",
      [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json float rendering" `Quick
          test_json_float_rendering;
        Alcotest.test_case "event round-trip (all variants)" `Quick
          test_event_roundtrip;
        Alcotest.test_case "registry instruments" `Quick test_registry;
        Alcotest.test_case "hub stamping and ring sink" `Quick
          test_hub_and_ring;
        Alcotest.test_case "jsonl determinism under seed" `Quick
          test_jsonl_deterministic;
        Alcotest.test_case "stats agree with online metrics" `Quick
          test_stats_agree_with_metrics;
        Alcotest.test_case "fault does not fabricate convenes" `Quick
          test_no_convene_fabricated_across_fault;
        Alcotest.test_case "catapult export is valid json" `Quick
          test_catapult_valid;
        Alcotest.test_case "jsonl renderer = tree printer (all variants)"
          `Quick test_jsonl_renderer_matches_tree;
        QCheck_alcotest.to_alcotest ~long:false prop_jsonl_renderer_random;
      ] );
  ]

(* The message-passing substrate: channel discipline, scheduler fairness,
   locality, determinism, fault injection, pinned trace digests. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry
module Workload = Snapcc_workload.Workload
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

(* [E.obs] is the cached projection: physically the same array until an
   acting activation or a corruption changes a core, a fresh one after
   (the pinned digests below pin its contents).  Monitors skip their
   per-edge passes on that identity. *)
let obs_identity ?telemetry () =
  let h = Families.by_name "ring9" in
  let eng = E.create ~seed:13 ~init:`Random ~deliver_bias:0.6 ?telemetry h in
  let w = Workload.always_requesting h in
  let counts = Array.make 4 0 in
  let count k = counts.(k) <- counts.(k) + 1 in
  for i = 1 to 3_000 do
    if i = 1_500 then begin
      let before = E.obs eng in
      E.corrupt eng ~victims:[ 0; 4 ];
      check "corruption re-projects" true (E.obs eng != before);
      count 3
    end;
    let before = E.obs eng in
    let inputs = Workload.inputs w before in
    let ev = E.step eng ~inputs in
    let after = E.obs eng in
    check "obs is stable between steps" true (E.obs eng == after);
    match ev with
    | E.Delivered _ ->
      count 0;
      check "delivery keeps the array" true (after == before)
    | E.Activated (_, None) ->
      count 1;
      check "no-op activation keeps the array" true (after == before)
    | E.Activated (_, Some _) ->
      count 2;
      check "acting activation re-projects" true (after != before)
  done;
  Array.iteri
    (fun k c -> check (Printf.sprintf "event kind %d exercised" k) true (c > 0))
    counts

(* with and without clock stamps, which read the same projection *)
let test_obs_identity () =
  obs_identity ();
  let hub = Tele.Hub.create () in
  let clocks = ref 0 in
  Tele.Hub.add_sink hub
    (Tele.Sink.custom ~close:ignore ~emit:(fun s ->
         match s.Tele.Event.ev with Tele.Event.Clock _ -> incr clocks | _ -> ()));
  obs_identity ~telemetry:hub ();
  check "clocks stamped" true (!clocks > 1_000)

(* A rejected corruption is checked before the engine emits, draws or
   writes anything: the engine steps on exactly like one that never saw
   the call — same events, observations and telemetry, clock stamps
   included. *)
let test_corrupt_rejected () =
  let h = Families.fig1 () in
  let engine () =
    let b = Buffer.create 4096 in
    let hub = Tele.Hub.create () in
    Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string b));
    (E.create ~seed:5 ~init:`Random ~telemetry:hub h, hub, b,
     Workload.always_requesting h)
  in
  let touched, hub_t, buf_t, w_t = engine () in
  let clean, hub_c, buf_c, w_c = engine () in
  let step eng w i =
    let ev = E.step eng ~inputs:(Workload.inputs w (E.obs eng)) in
    Workload.observe w ~step:i (E.obs eng);
    ev
  in
  let same_obs () = Array.for_all2 Obs.equal (E.obs touched) (E.obs clean) in
  for i = 1 to 50 do
    ignore (step touched w_t i);
    ignore (step clean w_c i)
  done;
  (match E.corrupt touched ~victims:[ 0; 1; 99 ] with
   | () -> Alcotest.fail "victim 99 must be rejected"
   | exception Invalid_argument _ -> ());
  check "observation untouched" true (same_obs ());
  for i = 51 to 250 do
    check (Printf.sprintf "step %d: same event" i) true
      (step touched w_t i = step clean w_c i)
  done;
  check "same final observation" true (same_obs ());
  Tele.Hub.close hub_t;
  Tele.Hub.close hub_c;
  check "same event stream" true (Buffer.contents buf_t = Buffer.contents buf_c)

(* ---- pinned trace digests ---- *)

(* MD5 of the whole JSONL trace of one [Driver.Mp] run: random start, half
   the processes corrupted mid-run, clocks stamped.  At bias 0.95 both
   forced branches of the scheduler's decision fire. *)
let digest_steps = 4_000

let trace_digest (module S : Snapcc_mc.System.S) ~bias h =
  let module R = Snapcc_experiments.Driver.Mp (S) in
  let b = Buffer.create (1 lsl 20) in
  let hub = Tele.Hub.create () in
  Tele.Hub.add_sink hub (Tele.Sink.jsonl (Buffer.add_string b));
  let n = H.n h in
  let faults ~step =
    if step = digest_steps / 2 then List.init (max 1 (n / 2)) (fun k -> 2 * k mod n)
    else []
  in
  let _ =
    R.run ~seed:7 ~init:`Random ~deliver_bias:bias ~faults ~telemetry:hub
      ~workload:(Workload.always_requesting h) ~steps:digest_steps h
  in
  Tele.Hub.close hub;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded before the two runtimes shared one scheduler decision. *)
let trace_goldens =
  [ ("cc1/ring9/0.05", "3716ac6cd2e28078f051d0b75da52cd9");
    ("cc1/ring9/0.5", "e7028c3c4e8c42f4113d653a09bdbddf");
    ("cc1/ring9/0.95", "33e081a3307e957550f818b9b990a050");
    ("cc1/fig4/0.05", "8e1b57935a2fdff5d86ea4c2a0c66f43");
    ("cc1/fig4/0.5", "9320f6e6a7dbe9529a38686769943ec2");
    ("cc1/fig4/0.95", "7e29026e714018f5f17abef40c084ce3");
    ("cc2/ring9/0.05", "7ac9ed0d20a77e1d1145ce32b102a585");
    ("cc2/ring9/0.5", "011d449fd662727b007ccc325f7165cd");
    ("cc2/ring9/0.95", "88457c2ee6f7d35e12aecba1770b578f");
    ("cc2/fig4/0.05", "98a24eacb8de86360cc717a6e57c91d5");
    ("cc2/fig4/0.5", "22b481c5354f7ed8591cf7db97663932");
    ("cc2/fig4/0.95", "9a67eeb9a897e93ffd5476d9698fc10d");
    ("cc3/ring9/0.05", "4b28f8e5f28d4e754a45eb1d6c45e262");
    ("cc3/ring9/0.5", "97aaf6bc68c7c0465b549c4077345867");
    ("cc3/ring9/0.95", "8fdb5a21b80f8366dda10ce74eabd8c6");
    ("cc3/fig4/0.05", "47c56f8fd047ba2a250eb92c935df6bd");
    ("cc3/fig4/0.5", "1b1f5b6f3384014464b5e82483c70543");
    ("cc3/fig4/0.95", "e698a6a049ec898adfe0a35ca1cf083f") ]

let test_pinned_trace_digests () =
  List.iter
    (fun (name, expected) ->
      match String.split_on_char '/' name with
      | [ algo; topo; bias ] ->
        let sys =
          (Option.get (Snapcc_mc.Systems.resolve algo)).Snapcc_mc.Systems.sys
        in
        let h = Families.by_name topo and bias = float_of_string bias in
        Alcotest.(check string) name expected (trace_digest sys ~bias h)
      | _ -> Alcotest.failf "bad golden name %s" name)
    trace_goldens

let suite =
  [ ( "message-passing",
      [ Alcotest.test_case "coalescing channels" `Quick test_coalescing_channels;
        Alcotest.test_case "scheduler progresses" `Quick test_scheduler_fairness;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "fault injection" `Quick test_corrupt;
        Alcotest.test_case "rejected corrupt changes nothing" `Quick
          test_corrupt_rejected;
        Alcotest.test_case "CC2/mp fairness + safety core" `Slow
          test_mp_cc2_serves_everyone;
        Alcotest.test_case "staleness exercised" `Quick test_max_staleness_grows;
        Alcotest.test_case "obs identity tracks core changes" `Quick
          test_obs_identity;
        Alcotest.test_case "pinned trace digests" `Quick test_pinned_trace_digests;
      ] );
  ]

(* The causal observability layer: vector-clock laws, wire trailers,
   span tracking, live surfaces, and the lockstep-oracle validation of
   the offline cut reconstruction (`Causal.analyze`). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Obs = Snapcc_runtime.Obs
module Causal = Snapcc_analysis.Causal
module Workload = Snapcc_workload.Workload
module X = Snapcc_experiments.Algos
module Tele = Snapcc_telemetry
module Vclock = Snapcc_telemetry.Vclock
module Net = Snapcc_net

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- vector-clock algebra (qcheck) ---- *)

let clock_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    array_repeat n (int_range 0 20))

let clock_arb = QCheck.make ~print:Vclock.to_string clock_gen

let pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> Vclock.to_string a ^ " / " ^ Vclock.to_string b)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      pair (array_repeat n (int_range 0 20)) (array_repeat n (int_range 0 20)))

let triple_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      triple
        (array_repeat n (int_range 0 20))
        (array_repeat n (int_range 0 20))
        (array_repeat n (int_range 0 20)))

let prop_merge_commutative =
  QCheck.Test.make ~name:"vclock merge commutative" ~count:500 pair_arb
    (fun (a, b) -> Vclock.merge a b = Vclock.merge b a)

let prop_merge_associative =
  QCheck.Test.make ~name:"vclock merge associative" ~count:500 triple_arb
    (fun (a, b, c) ->
      Vclock.merge a (Vclock.merge b c) = Vclock.merge (Vclock.merge a b) c)

let prop_merge_idempotent =
  QCheck.Test.make ~name:"vclock merge idempotent" ~count:500 clock_arb
    (fun a -> Vclock.merge a a = a)

let prop_merge_is_lub =
  QCheck.Test.make ~name:"vclock merge is the least upper bound" ~count:500
    pair_arb (fun (a, b) ->
      let m = Vclock.merge a b in
      Vclock.leq a m && Vclock.leq b m
      && m = Array.mapi (fun i x -> max x b.(i)) a)

let prop_compare_consistent =
  QCheck.Test.make ~name:"vclock compare agrees with leq" ~count:500 pair_arb
    (fun (a, b) ->
      match Vclock.compare_clocks a b with
      | Vclock.Equal -> a = b
      | Vclock.Before -> Vclock.leq a b && a <> b
      | Vclock.After -> Vclock.leq b a && a <> b
      | Vclock.Concurrent -> (not (Vclock.leq a b)) && not (Vclock.leq b a))

(* Random message-passing executions with explicit causality: each step a
   process either acts locally (tick) or first merges another process's
   current clock (receive) and ticks.  Ground-truth happens-before is the
   transitive closure of (own-predecessor, sender-at-send-time) edges —
   built independently of the clocks — and the clock comparison must
   reproduce it exactly. *)
let exec_gen =
  QCheck.Gen.(
    int_range 2 4 >>= fun n ->
    int_range 1 40 >>= fun len ->
    list_repeat len (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) bool)
    >>= fun ops -> return (n, ops))

let prop_compare_is_happens_before =
  QCheck.Test.make ~name:"vclock compare = happens-before on executions"
    ~count:300 (QCheck.make exec_gen) (fun (n, ops) ->
      let clocks = Array.init n (fun p ->
          let c = Vclock.create n in
          Vclock.tick c p; c)
      in
      let last_event = Array.make n (-1) in
      (* ancestors.(e) = set of event indices happening before event e *)
      let events = ref [] and ancestors = ref [] in
      let record p extra_pred =
        let idx = List.length !events in
        let anc = ref [] in
        let add_pred j =
          if j >= 0 then
            anc := j :: List.nth !ancestors j @ !anc
        in
        add_pred last_event.(p);
        (match extra_pred with Some j -> add_pred j | None -> ());
        events := !events @ [ Vclock.copy clocks.(p) ];
        ancestors := !ancestors @ [ List.sort_uniq compare !anc ];
        last_event.(p) <- idx
      in
      List.iter
        (fun (p, q, local) ->
          if local || q = p then begin
            Vclock.tick clocks.(p) p;
            record p None
          end
          else begin
            Vclock.merge_into ~into:clocks.(p) clocks.(q);
            Vclock.tick clocks.(p) p;
            record p (Some last_event.(q))
          end)
        ops;
      let events = Array.of_list !events in
      let ancestors = Array.of_list !ancestors in
      let hb a b = List.mem a ancestors.(b) in
      let ok = ref true in
      Array.iteri
        (fun i ci ->
          Array.iteri
            (fun j cj ->
              let expect =
                if i = j then Vclock.Equal
                else if hb i j then Vclock.Before
                else if hb j i then Vclock.After
                else Vclock.Concurrent
              in
              if Vclock.compare_clocks ci cj <> expect then ok := false)
            events)
        events;
      !ok)

(* ---- wire trailer codec ---- *)

let base_target_arb =
  QCheck.make
    ~print:(fun (b, t) -> Vclock.to_string b ^ " -> " ^ Vclock.to_string t)
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      array_repeat n (int_range 0 1000) >>= fun base ->
      array_repeat n (int_range 0 5) >>= fun inc ->
      return (base, Array.mapi (fun i x -> x + inc.(i)) base))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"clock trailer wire roundtrip (full and delta)"
    ~count:500 base_target_arb (fun (base, target) ->
      Vclock.decode_full (Vclock.encode_full target) = Some target
      && Vclock.decode_wire (Vclock.encode_wire target) = Some target
      && Vclock.decode_wire ~base (Vclock.encode_wire ~base target)
         = Some target
      (* a full-form trailer must also decode against any base *)
      && Vclock.decode_wire ~base (Vclock.encode_wire target) = Some target)

let prop_wire_total =
  QCheck.Test.make ~name:"clock trailer decode is total on junk" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 24))
    (fun s ->
      (* never raises; garbage is None or some decoded clock, only a
         well-formed trailer may round-trip *)
      let _ = Vclock.decode_full s in
      let _ = Vclock.decode_wire s in
      let _ = Vclock.decode_wire ~base:[| 3; 1 |] s in
      true)

(* ---- live surfaces ---- *)

let test_live_surfaces () =
  let reg = Tele.Registry.create () in
  let live = Tele.Live.create ~registry:reg () in
  let sink = Tele.Live.sink live in
  let seq = ref 0 in
  let feed ev =
    Tele.Sink.emit sink { Tele.Event.seq = !seq; t_us = !seq * 10; ev };
    incr seq
  in
  feed
    (Tele.Event.Run_start
       { algo = "cc1"; daemon = "net"; workload = "always"; seed = 1; n = 5;
         m = 5; topo = "" });
  feed (Tele.Event.Convene { step = 2; round = 0; eid = 3 });
  feed
    (Tele.Event.Net_delivered
       { step = 2; src = 0; dst = 1; bytes = 40; latency_us = 120 });
  feed
    (Tele.Event.Net_dropped { step = 3; src = 1; dst = 2; reason = "drop" });
  feed (Tele.Event.Verdict { step = 4; rule = "exclusion"; detail = "x" });
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let dash = Tele.Live.render_dash live in
  check "dashboard renders" true (String.length dash > 0);
  check "dashboard shows drops" true (contains dash "drop");
  let path = Filename.temp_file "snapcc" ".prom" in
  Tele.Live.write_prom live ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  check "prometheus exposition written" true (contains body "snapcc_")

(* ---- lockstep oracle: mp ---- *)

(* `ccsim mp`'s runner with full telemetry: the online observer and the
   vector-clock stamps go to one ring, and the offline replay from the
   clocks alone must reproduce the observer's verdicts, convene ledger and
   stabilization exactly. *)
let mp_traced ?(corrupt_at = None) ~steps ~seed h =
  let module R = Snapcc_experiments.Driver.Mp (X.Cc2) in
  let hub = Tele.Hub.create () in
  let ring = Tele.Sink.ring ~capacity:(steps * 16 + 64) in
  Tele.Hub.add_sink hub ring;
  let faults ~step = if Some step = corrupt_at then [ 0 ] else [] in
  ignore
    (R.run ~seed ~telemetry:hub ~faults
       ~workload:(Workload.always_requesting h) ~steps h);
  Tele.Hub.close hub;
  List.map (fun (s : Tele.Event.stamped) -> s.Tele.Event.ev)
    (Tele.Sink.ring_events ring)

let test_mp_cut_reconstruction_parity () =
  let h = Families.fig1 () in
  let events = mp_traced ~steps:1_000 ~seed:5 h in
  match Causal.analyze events with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok t ->
    let par = Causal.parity t events in
    check "verdict parity" true par.Causal.verdicts_ok;
    check "convene ledger compared" true par.Causal.convenes_checked;
    check "convene parity" true par.Causal.convenes_ok;
    check "stabilization parity" true par.Causal.stabilization_ok;
    check "oracle parity" true (Causal.parity_ok par);
    check "causal dfc dominates schedule dfc" true
      (Causal.dfc_causal t >= Causal.dfc_schedule t);
    (* every canonical cut is consistent; breaking a message edge is not *)
    let cuts = ref 0 in
    Causal.iter_cuts t (fun ~idx:_ ~frontier ~obs:_ ->
        incr cuts;
        check "canonical cut consistent" true (Causal.cut_consistent t frontier));
    check_int "one cut per prefix" (Array.length (Causal.events t) + 1) !cuts;
    let broken = ref false in
    Array.iter
      (fun (ev : Causal.node) ->
        if not !broken then
          match
            Array.to_list ev.Causal.clock
            |> List.mapi (fun q c -> (q, c))
            |> List.find_opt (fun (q, c) -> q <> ev.Causal.p && c > 1)
          with
          | Some (q, c) ->
            broken := true;
            let f = Array.copy ev.Causal.clock in
            f.(q) <- c - 1;
            check "cut missing a message predecessor rejected" false
              (Causal.cut_consistent t f)
          | None -> ())
      (Causal.events t)

let test_mp_corruption_reconstruction () =
  let h = Families.fig1 () in
  let events = mp_traced ~corrupt_at:(Some 400) ~steps:1_500 ~seed:9 h in
  match Causal.analyze events with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok t ->
    check "burst found from the clocks" true
      (Causal.fault_iters t = [ 400 ]);
    let par = Causal.parity t events in
    check "verdict parity under faults" true par.Causal.verdicts_ok;
    check "convene parity under faults" true par.Causal.convenes_ok;
    check "stabilization parity under faults" true par.Causal.stabilization_ok

(* ---- lockstep oracle: net ---- *)

let net_traced ~steps ~seed ~plan ~burst ~engine h =
  let hub = Tele.Hub.create () in
  let ring = Tele.Sink.ring ~capacity:(steps * (6 * H.n h + 16) + 64) in
  Tele.Hub.add_sink hub ring;
  let cfg =
    { Net.Orchestrator.algo = "cc1"; seed; init = `Canonical;
      deliver_bias = 0.5; steps; plan; burst; engine }
  in
  let r =
    match
      Net.Orchestrator.run ~telemetry:hub ~mode:Net.Spawn.Fork
        ~workload:(Workload.always_requesting h) cfg h
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Tele.Hub.close hub;
  ( r,
    List.map (fun (s : Tele.Event.stamped) -> s.Tele.Event.ev)
      (Tele.Sink.ring_events ring) )

(* The load-bearing oracle check: on a zero-fault lockstep run, cut
   reconstruction from the vector clocks alone reproduces the online
   observer's Spec verdicts and stabilization verdicts exactly. *)
let test_net_lockstep_parity () =
  let h = Families.by_name "ring5" in
  let r, events =
    net_traced ~steps:1_000 ~seed:3 ~plan:Net.Faults.none ~burst:None
      ~engine:`Closure h
  in
  match Causal.analyze events with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok t ->
    let par = Causal.parity t events in
    check "convene ledger compared" true par.Causal.convenes_checked;
    check "oracle parity on the zero-fault lockstep run" true
      (Causal.parity_ok par);
    check_int "replayed convenes match the orchestrator"
      r.Net.Orchestrator.convenes
      (List.length (Causal.convened t));
    check_int "no faults reconstructed" 0 (List.length (Causal.fault_iters t))

let test_net_soak_parity () =
  let h = Families.by_name "ring5" in
  let r, events =
    net_traced ~steps:1_200 ~seed:11 ~plan:Net.Faults.none ~burst:(Some 600)
      ~engine:`Packed h
  in
  match Causal.analyze events with
  | Error e -> Alcotest.failf "analyze failed: %s" e
  | Ok t ->
    let par = Causal.parity t events in
    check "oracle parity across the corruption burst" true
      (Causal.parity_ok par);
    check "burst reconstructed" true (Causal.fault_iters t = [ 600 ]);
    check "stabilization step matches the orchestrator" true
      (Causal.stabilized_in t = r.Net.Orchestrator.stabilized_in);
    (match Causal.stabilized_in t with
     | Some d ->
       check "stabilized" true (d >= 0);
       check "critical path reaches the recovery" true
         (List.length (Causal.critical_path t) >= 2)
     | None -> Alcotest.fail "no recovery reconstructed")

(* a pre-causal trace (no topo, no clock stamps) is rejected, not crashed *)
let test_rejects_unstamped_trace () =
  let events =
    [ Tele.Event.Run_start
        { algo = "cc1"; daemon = "d"; workload = "w"; seed = 1; n = 2; m = 1;
          topo = "" };
      Tele.Event.Run_end { outcome = "x"; steps = 5; rounds = 0 } ]
  in
  (match Causal.analyze events with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a trace without topology");
  match
    Causal.analyze
      [ Tele.Event.Run_start
          { algo = "cc1"; daemon = "d"; workload = "w"; seed = 1; n = 2;
            m = 1; topo = "n 2\ncommittee 0 1\n" } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a trace without clock stamps"

let qsuite =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_merge_commutative; prop_merge_associative; prop_merge_idempotent;
      prop_merge_is_lub; prop_compare_consistent;
      prop_compare_is_happens_before; prop_wire_roundtrip; prop_wire_total ]

let suite =
  [ ( "causal",
      qsuite
      @ [ Alcotest.test_case "live dash/prom surfaces" `Quick
            test_live_surfaces;
          Alcotest.test_case "mp cut-reconstruction parity (oracle)" `Quick
            test_mp_cut_reconstruction_parity;
          Alcotest.test_case "mp corruption reconstruction" `Quick
            test_mp_corruption_reconstruction;
          Alcotest.test_case "net zero-fault lockstep parity (oracle)" `Quick
            test_net_lockstep_parity;
          Alcotest.test_case "net soak parity across a burst" `Quick
            test_net_soak_parity;
          Alcotest.test_case "unstamped traces rejected" `Quick
            test_rejects_unstamped_trace ] ) ]

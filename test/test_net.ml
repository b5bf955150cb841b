(* The networked runtime: codec strictness, fault plan parsing, link-layer
   semantics, mp-vs-net cross-validation, and the faulty soak. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Obs = Snapcc_runtime.Obs
module Workload = Snapcc_workload.Workload
module Tele = Snapcc_telemetry
module Net = Snapcc_net
module Codec = Net.Codec
module Faults = Net.Faults
module Link = Net.Link

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- codec ---- *)

let roundtrip ?expect ~algo msg =
  match Codec.decode ?expect (Codec.encode ~algo msg) with
  | Ok (tag, m) -> (tag, m)
  | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)

let test_codec_control_messages () =
  let msgs =
    [ Codec.Hello { id = 3 };
      Codec.Init { seed = 42; topo = "n 2\ncommittee 0 1\n"; core = "abc"; cache = "" };
      Codec.Ready;
      Codec.Activate
        { step = 7; req_in = [| true; false; true |]; req_out = [| false; false; true |] };
      Codec.Activated
        { label = Some "Join"; core = "xyz";
          clock = Tele.Vclock.encode_full [| 4; 1; 0 |] };
      Codec.Activated { label = None; core = ""; clock = "" };
      Codec.Deliver
        { src = 1; state = String.make 300 '\x00';
          clock = Tele.Vclock.encode_full [| 0; 7; 2 |] };
      Codec.Delivered;
      Codec.Corrupt { core = "c"; cache = "k" };
      Codec.Corrupted;
      Codec.Decode_error { reason = "bad payload" };
      Codec.Bye;
      Codec.Bye_ack { frames = 123; decode_errors = 4 } ]
  in
  List.iter
    (fun msg ->
      let tag, m = roundtrip ~algo:2 ~expect:2 msg in
      check_int "algo tag" 2 tag;
      check "roundtrip" true (m = msg))
    msgs

(* Every core state the model checker enumerates for the paper's algorithms
   on single2 and line3 survives a marshal -> frame -> strict decode ->
   unmarshal roundtrip.  The domain enumeration of lib/mc is a superset of
   the reachable states, so this covers every snapshot the runtime can
   ship. *)
let test_codec_roundtrip_domain_states () =
  List.iter
    (fun topo_name ->
      let h = Families.by_name topo_name in
      List.iter
        (fun key ->
          let entry =
            match Snapcc_mc.Systems.find key with
            | Some e -> e
            | None -> Alcotest.failf "unknown mc system %s" key
          in
          let module S = (val entry.Snapcc_mc.Systems.make "tree") in
          let tag =
            match Codec.algo_tag key with
            | Some t -> t
            | None -> Alcotest.failf "no wire tag for %s" key
          in
          let states = ref 0 in
          for p = 0 to H.n h - 1 do
            List.iter
              (fun st ->
                incr states;
                let payload = Marshal.to_string st [] in
                (* every frame rides with a vector-clock trailer: stamp a
                   distinct clock per state and require it back verbatim *)
                let vc =
                  Array.init (H.n h) (fun q -> if q = p then !states else q)
                in
                match
                  roundtrip ~algo:tag ~expect:tag
                    (Codec.Deliver
                       { src = p; state = payload;
                         clock = Tele.Vclock.encode_full vc })
                with
                | _, Codec.Deliver { src; state; clock } ->
                  check_int "src preserved" p src;
                  check "clock preserved" true
                    (Tele.Vclock.decode_full clock = Some vc);
                  let st' : S.state = Marshal.from_string state 0 in
                  check "state preserved" true (S.equal_state st st')
                | _ -> Alcotest.fail "wrong message kind")
              (S.domain h p)
          done;
          check
            (Printf.sprintf "%s/%s enumerated states" key topo_name)
            true (!states > 10))
        [ "cc1"; "cc2"; "cc3" ])
    [ "single2"; "line3" ]

let test_codec_strictness () =
  let body =
    Codec.encode ~algo:1
      (Codec.Deliver
         { src = 0; state = "snapshot";
           clock = Tele.Vclock.encode_full [| 1; 1 |] })
  in
  let expect_err b =
    match Codec.decode ~expect:1 b with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "strict decoder accepted a mangled frame"
  in
  (* truncations at every length *)
  for len = 0 to String.length body - 1 do
    expect_err (String.sub body 0 len)
  done;
  (* trailing junk *)
  expect_err (body ^ "x");
  (* wrong magic / version / algo tag *)
  expect_err ("XXXX" ^ String.sub body 4 (String.length body - 4));
  (match Codec.decode ~expect:2 body with
   | Error (Codec.Bad_algo 1) -> ()
   | _ -> Alcotest.fail "algo tag mismatch not detected");
  (* seeded byte flips: the corruption primitive must never decode *)
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 500 do
    expect_err (Codec.corrupt_body rng body)
  done

let prop_corrupt_changes_frame =
  QCheck.Test.make ~name:"corrupt_body always changes a non-empty body"
    ~count:2000
    QCheck.(pair (string_of_size (Gen.int_range 1 24)) int)
    (fun (body, seed) ->
      Codec.corrupt_body (Random.State.make [| seed |]) body <> body)

(* ---- buffered framing ---- *)

module Wire = Net.Wire

let framed bodies =
  let b = Buffer.create 1024 in
  List.iter
    (fun body ->
      Buffer.add_int32_be b (Int32.of_int (String.length body));
      Buffer.add_string b body)
    bodies;
  Buffer.contents b

let write_string fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Bodies straddle the connection's 512-byte initial buffer and the
   64 KiB a single read returns; the byte stream is cut at random
   points. *)
let frames_arb =
  let open QCheck.Gen in
  let body =
    frequency
      [ (2, return 0); (6, int_range 1 1_500); (1, int_range 65_536 70_000) ]
    >>= fun len -> string_size ~gen:char (return len)
  in
  QCheck.make
    ~print:(fun (bodies, cut) ->
      Printf.sprintf "%d bodies of %s bytes, cut seed %d" (List.length bodies)
        (String.concat "," (List.map (fun b -> string_of_int (String.length b)) bodies))
        cut)
    (pair (list_size (int_range 0 8) body) int)

(* Another process writes the frames in random chunks; the reader must
   hand back the same bodies in order, then [`Eof] at the close. *)
let prop_framing_roundtrip =
  QCheck.Test.make ~name:"buffered reader returns the bodies written by a peer"
    ~count:40 frames_arb
    (fun (bodies, cut) ->
      let stream = framed bodies in
      let rng = Random.State.make [| cut |] in
      let rec chunks off acc =
        if off >= String.length stream then List.rev acc
        else
          let len =
            min (String.length stream - off)
              (1 + Random.State.int rng (if Random.State.bool rng then 16 else 9_000))
          in
          chunks (off + len) (String.sub stream off len :: acc)
      in
      let chunks = chunks 0 [] in
      let nodes =
        Net.Spawn.fork_pool ~n:1 ~serve:(fun ~id:_ fd ->
            List.iter (write_string fd) chunks)
      in
      let c = Wire.conn nodes.(0).Net.Spawn.fd in
      let rec collect acc =
        match Wire.read c with
        | Ok body -> collect (body :: acc)
        | Error `Eof -> Ok (List.rev acc)
        | Error `Truncated -> Error "truncated"
        | Error (`Oversized n) -> Error (Printf.sprintf "oversized %d" n)
      in
      let got = collect [] in
      Net.Spawn.shutdown nodes;
      got = Ok bodies)

let test_framing_errors () =
  let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a close inside a frame, in its length and in its body *)
  List.iter
    (fun (what, bytes) ->
      let w, r = pair () in
      write_string w bytes;
      Unix.close w;
      let c = Wire.conn r in
      let rec last () =
        match Wire.read c with Ok _ -> last () | Error _ as e -> e
      in
      (match last () with
       | Error `Truncated -> ()
       | _ -> Alcotest.failf "%s: expected a truncated frame" what);
      Unix.close r)
    [ ("close inside the length", "\000\000");
      ("close inside the body", framed [ "hello" ] ^ "\000\000\000\100" ^ String.make 50 'x') ];
  (* an oversized length is refused from the header alone: no body
     follows, and a read attempt would fail after the timeout instead of
     blocking *)
  let w, r = pair () in
  Unix.setsockopt_float r Unix.SO_RCVTIMEO 5.;
  let len = Wire.max_frame + 1 in
  let b = Buffer.create 4 in
  Buffer.add_int32_be b (Int32.of_int len);
  write_string w (Buffer.contents b);
  let c = Wire.conn r in
  (match Wire.read c with
   | Error (`Oversized n) -> check_int "reported length" len n
   | _ -> Alcotest.fail "expected an oversized frame");
  Unix.close w;
  Unix.close r

(* ---- fault plan parsing ---- *)

let test_faults_parse () =
  (match Faults.parse "drop=0.05,delay=2,dup=0.01,reorder=0.25,corrupt=0.02,partition=100-400" with
   | Ok p ->
     check "drop" true (p.Faults.drop = 0.05);
     check_int "delay" 2 p.Faults.delay;
     check "partition" true (p.Faults.partition = Some (100, 400));
     check "not pure" true (not (Faults.is_pure p))
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Faults.parse "" with
   | Ok p -> check "empty plan is none" true (p = Faults.none)
   | Error e -> Alcotest.failf "empty spec: %s" e);
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid spec %S" bad)
    [ "drop=1.5"; "drop=x"; "delay=-1"; "partition=400-100"; "partition=7";
      "warp=0.1"; "drop" ]

let test_partition_split () =
  let plan =
    match Faults.parse "partition=10-20" with Ok p -> p | Error e -> Alcotest.fail e
  in
  (* inside the window, only links crossing the halves are cut *)
  check "crossing cut" true
    (Faults.partitioned plan ~step:10 ~n:4 ~src:0 ~dst:3);
  check "same side open" true
    (not (Faults.partitioned plan ~step:10 ~n:4 ~src:0 ~dst:1));
  check "healed after" true
    (not (Faults.partitioned plan ~step:20 ~n:4 ~src:0 ~dst:3))

(* ---- link layer ---- *)

let test_link_coalesces_when_pure () =
  let l = Link.create ~src:0 ~dst:1 ~seed:1 in
  let plan = Faults.none in
  for step = 0 to 9 do
    ignore
      (Link.send l ~plan ~step ~now:0. ~state:(string_of_int step)
         ~clock:[| step; 0 |])
  done;
  check_int "single slot" 1 (Link.size l);
  (match Link.pop l ~plan ~step:9 with
   | Some e -> check "latest wins" true (e.Link.state = "9")
   | None -> Alcotest.fail "nothing queued");
  check_int "drained" 0 (Link.size l)

let test_link_bounded_and_deterministic () =
  let plan =
    match Faults.parse "drop=0.2,delay=3,dup=0.2,reorder=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let run () =
    let l = Link.create ~src:2 ~dst:5 ~seed:7 in
    let log = ref [] in
    for step = 0 to 199 do
      let r =
        Link.send l ~plan ~step ~now:0. ~state:(string_of_int step)
          ~clock:[| step; 0 |]
      in
      log := (`Sent (r.Link.copies, r.Link.evicted)) :: !log;
      if step mod 3 = 0 then
        match Link.pop l ~plan ~step with
        | Some e -> log := `Popped e.Link.state :: !log
        | None -> log := `Empty :: !log
    done;
    (Link.size l, !log)
  in
  let size, log = run () in
  check "bounded queue" true (size <= Link.capacity);
  check "per-link rng is deterministic" true ((size, log) = run ());
  check "losses happened" true
    (List.exists (function `Sent (0, _) -> true | _ -> false) log)

(* ---- mp-vs-net cross-validation ---- *)

(* A fault-free networked run (forked node processes, coalescing loopback
   links) must replay the in-process message-passing emulation of the same
   seed event for event: once the [net_*] link events are dropped and the
   scheduler's name is blanked, the two telemetry streams are equal, under
   either wire encoding, with and without a mid-run corruption burst (mp
   corrupts the orchestrator's victims through [?faults]).  The counters,
   the final configuration and the aggregated summary follow. *)
module Mp = Snapcc_experiments.Driver.Mp (Snapcc_experiments.Algos.Cc2)

(* a hub whose summary is folded online and whose events are kept, minus
   the link layer's and with the scheduler's name blanked *)
let parity_hub () =
  let hub = Tele.Hub.create () in
  let stats = Tele.Stats.create () in
  Tele.Hub.add_sink hub (Tele.Stats.sink stats);
  let events = ref [] in
  Tele.Hub.add_sink hub
    (Tele.Sink.custom ~close:ignore ~emit:(fun (s : Tele.Event.stamped) ->
         match s.Tele.Event.ev with
         | Tele.Event.Net_sent _ | Tele.Event.Net_delivered _
         | Tele.Event.Net_dropped _ -> ()
         | Tele.Event.Run_start r ->
           events := Tele.Event.Run_start { r with daemon = "" } :: !events
         | ev -> events := ev :: !events));
  (hub, stats, fun () -> List.rev !events)

let burst_victims n ~burst ~step =
  if Some step = burst then List.init (max 1 (n / 2)) (fun k -> 2 * k mod n) else []

(* the parts of a summary both runtimes must agree on: everything but the
   scheduler's name and the wall-clock latency histogram *)
let comparable (meta, (s : Tele.Stats.summary)) =
  ( Option.map (fun (m : Tele.Stats.meta) -> { m with daemon = "" }) meta,
    { s with latency_histogram = [] } )

let replay_case ~topo ~init ~seed ~bias ~burst =
  let h = Families.by_name topo and steps = 3_000 in
  let name = Printf.sprintf "%s seed %d" topo seed in
  let mp_hub, mp_stats, mp_events = parity_hub () in
  let r, eng =
    Mp.run ~seed ~init ~deliver_bias:bias ~telemetry:mp_hub
      ~faults:(burst_victims (H.n h) ~burst)
      ~workload:(Workload.always_requesting h) ~steps h
  in
  let mp_events = mp_events () in
  List.iter
    (fun engine ->
      let name =
        name ^ match engine with `Packed -> " (packed wire)" | `Closure -> ""
      in
      let cfg =
        { Net.Orchestrator.algo = "cc2"; seed; init; deliver_bias = bias; steps;
          plan = Faults.none; burst; engine }
      in
      let net_hub, net_stats, net_events = parity_hub () in
      let nr =
        match
          Net.Orchestrator.run ~telemetry:net_hub ~mode:Net.Spawn.Fork
            ~workload:(Workload.always_requesting h) cfg h
        with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      check (name ^ ": same event stream") true (mp_events = net_events ());
      check_int (name ^ ": same convene count")
        (List.length r.Snapcc_experiments.Driver.convened)
        nr.Net.Orchestrator.convenes;
      check_int (name ^ ": same violation count")
        (List.length r.Snapcc_experiments.Driver.violations)
        (List.length nr.Net.Orchestrator.violations);
      check_int (name ^ ": same sends") (Mp.E.messages_sent eng)
        nr.Net.Orchestrator.sent;
      check_int (name ^ ": same deliveries") (Mp.E.messages_delivered eng)
        nr.Net.Orchestrator.delivered;
      check_int (name ^ ": same staleness") (Mp.E.max_staleness eng)
        nr.Net.Orchestrator.max_staleness;
      check_int (name ^ ": nothing lost without faults") 0
        nr.Net.Orchestrator.dropped;
      check (name ^ ": same final configuration") true
        (Array.for_all2 Obs.equal r.Snapcc_experiments.Driver.final_obs
           nr.Net.Orchestrator.final_obs);
      check (name ^ ": same telemetry summary") true
        (comparable (Tele.Stats.result mp_stats)
        = comparable (Tele.Stats.result net_stats)))
    [ `Closure; `Packed ];
  check (name ^ ": token handed off") true
    ((snd (Tele.Stats.result mp_stats)).Tele.Stats.token_handoffs > 0);
  List.length mp_events

let test_net_replays_mp () =
  List.iter
    (fun (topo, init, seed, bias, burst) ->
      let events = replay_case ~topo ~init ~seed ~bias ~burst in
      check (topo ^ ": a long stream") true (events > 4_000))
    [ ("fig1", `Canonical, 3, 0.4, None);
      ("fig1", `Random, 5, 0.5, Some 1_500);
      ("ring5", `Random, 7, 0.3, Some 1_000);
      ("ring9", `Canonical, 1, 0.9, Some 2_000) ]

(* The orchestrator ignores SIGPIPE only while it runs: afterwards a
   closed stdout must again end the process the default way. *)
let test_sigpipe_restored () =
  let h = Families.by_name "ring4" in
  let caller = Sys.signal Sys.sigpipe Sys.Signal_default in
  let cfg =
    { Net.Orchestrator.algo = "cc1"; seed = 1; init = `Canonical;
      deliver_bias = 0.5; steps = 20; plan = Faults.none; burst = None;
      engine = `Closure }
  in
  (match
     Net.Orchestrator.run ~mode:Net.Spawn.Fork
       ~workload:(Workload.always_requesting h) cfg h
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  match Sys.signal Sys.sigpipe caller with
  | Sys.Signal_default -> ()
  | Sys.Signal_ignore | Sys.Signal_handle _ ->
    Alcotest.fail "SIGPIPE disposition not restored after the run"

let test_unknown_algo_rejected () =
  let h = Families.by_name "ring4" in
  let cfg =
    { Net.Orchestrator.algo = "dining"; seed = 1; init = `Canonical;
      deliver_bias = 0.5; steps = 10; plan = Faults.none; burst = None;
      engine = `Closure }
  in
  match
    Net.Orchestrator.run ~mode:Net.Spawn.Fork
      ~workload:(Workload.always_requesting h) cfg h
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "net accepted a non-cc algorithm"

(* ---- faulty soak ---- *)

let soak_run () =
  let h = Families.by_name "ring5" in
  let hub = Tele.Hub.create () in
  let ring = Tele.Sink.ring ~capacity:65_536 in
  Tele.Hub.add_sink hub ring;
  let plan =
    match Faults.parse "drop=0.05,delay=2,dup=0.02,corrupt=0.02" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg =
    { Net.Orchestrator.algo = "cc1"; seed = 11; init = `Canonical;
      deliver_bias = 0.5; steps = 1_500; plan; burst = Some 750; engine = `Closure }
  in
  let r =
    match
      Net.Orchestrator.run ~telemetry:hub ~mode:Net.Spawn.Fork
        ~workload:(Workload.always_requesting h) cfg h
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let events =
    List.map (fun (s : Tele.Event.stamped) -> s.Tele.Event.ev)
      (Tele.Sink.ring_events ring)
  in
  (r, events)

let soak_cache = ref None

let soak_events_cached () =
  match !soak_cache with
  | Some r -> r
  | None ->
    let r = soak_run () in
    soak_cache := Some r;
    r

let test_soak_stabilizes () =
  let r, events = soak_events_cached () in
  check_int "zero violations across the faulty soak" 0
    (List.length r.Net.Orchestrator.violations);
  check "losses injected" true (r.Net.Orchestrator.dropped > 0);
  check "corrupted frames rejected, not crashed" true
    (r.Net.Orchestrator.malformed > 0);
  check_int "decoder rejections match node reports"
    r.Net.Orchestrator.malformed r.Net.Orchestrator.node_decode_errors;
  (match r.Net.Orchestrator.stabilized_in with
   | Some d -> check "stabilized promptly" true (d >= 0 && d < 750)
   | None -> Alcotest.fail "no convene after the corruption burst");
  check "meetings kept convening" true (r.Net.Orchestrator.convenes > 2);
  ignore events

(* The telemetry stream of a faulty networked run is byte-reproducible on
   its logical-event subset (everything but net_delivered's wall-clock
   latency). *)
let test_soak_logical_trace_reproducible () =
  let r1, ev1 = soak_events_cached () in
  let r2, ev2 = soak_run () in
  check_int "same outcome" r1.Net.Orchestrator.delivered
    r2.Net.Orchestrator.delivered;
  let logical evs =
    List.filter_map
      (fun ev ->
        if Tele.Event.logical ev then Some (Tele.Json.to_string (Tele.Event.to_json ev))
        else None)
      evs
  in
  check "logical event subset identical" true (logical ev1 = logical ev2);
  check "wall-clock events present" true
    (List.exists (fun ev -> not (Tele.Event.logical ev)) ev1)

let suite =
  [ ( "net",
      [ Alcotest.test_case "codec control messages" `Quick test_codec_control_messages;
        Alcotest.test_case "codec roundtrip over mc state domains" `Quick
          test_codec_roundtrip_domain_states;
        Alcotest.test_case "strict decoder rejects corruption" `Quick
          test_codec_strictness;
        QCheck_alcotest.to_alcotest ~long:false prop_corrupt_changes_frame;
        QCheck_alcotest.to_alcotest ~long:false prop_framing_roundtrip;
        Alcotest.test_case "framing errors are typed" `Quick test_framing_errors;
        Alcotest.test_case "fault plan parsing" `Quick test_faults_parse;
        Alcotest.test_case "partition splits the node range" `Quick
          test_partition_split;
        Alcotest.test_case "pure links coalesce" `Quick test_link_coalesces_when_pure;
        Alcotest.test_case "faulty links bounded + deterministic" `Quick
          test_link_bounded_and_deterministic;
        Alcotest.test_case "zero-fault net replays mp" `Quick test_net_replays_mp;
        Alcotest.test_case "SIGPIPE disposition restored" `Quick
          test_sigpipe_restored;
        Alcotest.test_case "non-cc algorithms rejected" `Quick
          test_unknown_algo_rejected;
        Alcotest.test_case "faulty soak stabilizes after burst" `Slow
          test_soak_stabilizes;
        Alcotest.test_case "logical trace reproducible" `Slow
          test_soak_logical_trace_reproducible;
      ] );
  ]

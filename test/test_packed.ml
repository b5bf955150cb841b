(* The packed-engine parity contract: a run routed through the packed
   guard/footprint tables (driver, mp engine, networked wire) is
   trace-identical to the closure run of the same seed — same enabled
   sets, same daemon draws, same observable events.  Plus the XOR-delta
   snapshot codec: exact round-trips, and every malformed or out-of-sync
   frame degrades to a resync/reject, never to a wrong state. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Trace = Snapcc_runtime.Trace
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Driver = Snapcc_experiments.Driver
module X = Snapcc_experiments.Algos
module Net = Snapcc_net
module Codec = Net.Codec
module Delta = Net.Delta
module Faults = Net.Faults
module Systems = Snapcc_mc.Systems

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Typed System.S instances of the paper's algorithms, sharing the state
   types of X.Cc1/Cc2/Cc3 through OCaml's applicative functors — the
   bridge that lets the engines consume lib/mc's packed tables. *)
module Cursor_off = struct
  let cursor = false
end

module Cursor_on = struct
  let cursor = true
end

module Sys_cc1 = Snapcc_mc.Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1)
module Sys_cc2 =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc2) (Cursor_off)
module Sys_cc3 =
  Snapcc_mc.Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc3) (Cursor_on)

(* The four input modes the driver parity sweep runs under. *)
let input_modes h =
  [ ("always", fun () -> Workload.always_requesting h);
    ("bursty", fun () -> Workload.bursty ~seed:77 h);
    ("selective", fun () -> Workload.selective ~requesters:[ 0 ] h);
    ("infinite", fun () -> Workload.infinite_meetings h) ]

(* ---- driver parity ---- *)

module Driver_parity
    (A : Model.ALGO)
    (Sys : Snapcc_mc.System.S with type state = A.state) =
struct
  module R = Driver.Make (A)
  module Pk = Snapcc_mc.Packed.Make (Sys)

  let run_pair ~name ~hooks ~mk_workload ~init ~seed ~steps h =
    let go packed =
      R.run ?packed ~seed ~init ~daemon:(Daemon.random_subset ())
        ~workload:(mk_workload ()) ~record_trace:true ~steps h
    in
    let rc = go None in
    let rp = go (Some hooks) in
    check (name ^ ": outcome") true (rc.Driver.outcome = rp.Driver.outcome);
    check_int (name ^ ": steps") rc.Driver.steps rp.Driver.steps;
    check_int (name ^ ": rounds") rc.Driver.rounds rp.Driver.rounds;
    check (name ^ ": convene ledger") true
      (rc.Driver.convened = rp.Driver.convened);
    check (name ^ ": violations") true
      (rc.Driver.violations = rp.Driver.violations);
    check (name ^ ": final configuration") true
      (Array.for_all2 Obs.equal rc.Driver.final_obs rp.Driver.final_obs);
    match (rc.Driver.trace, rp.Driver.trace) with
    | Some t1, Some t2 ->
      check (name ^ ": step-for-step trace") true
        (Trace.entries t1 = Trace.entries t2)
    | _ -> Alcotest.fail (name ^ ": trace not recorded")

  (* full sweep on one topology: every input mode x init x seed *)
  let sweep ?cap ~algo ~topo ~seeds ~steps h =
    let pk = Pk.build ?cap h in
    let hooks = Pk.hooks pk in
    List.iter
      (fun (mode, mk_workload) ->
        List.iter
          (fun init ->
            List.iter
              (fun seed ->
                let name =
                  Printf.sprintf "%s/%s/%s/%s/seed%d" algo topo mode
                    (match init with `Canonical -> "canon" | `Random -> "rand")
                    seed
                in
                run_pair ~name ~hooks ~mk_workload ~init ~seed ~steps h)
              seeds)
          [ `Canonical; `Random ])
      (input_modes h);
    pk
end

module P1 = Driver_parity (X.Cc1) (Sys_cc1)
module P2 = Driver_parity (X.Cc2) (Sys_cc2)
module P3 = Driver_parity (X.Cc3) (Sys_cc3)

let test_driver_parity_single2 () =
  let h = Families.single 2 in
  let seeds = [ 1; 5 ] and steps = 2_000 in
  let pk1 = P1.sweep ~algo:"cc1" ~topo:"single2" ~seeds ~steps h in
  let pk2 = P2.sweep ~algo:"cc2" ~topo:"single2" ~seeds ~steps h in
  let pk3 = P3.sweep ~algo:"cc3" ~topo:"single2" ~seeds ~steps h in
  (* the sweep above must actually have exercised the table path *)
  check "cc1 tables built" true (P1.Pk.built pk1);
  check "cc2 tables built" true (P2.Pk.built pk2);
  check "cc3 tables built" true (P3.Pk.built pk3)

let test_driver_parity_line3 () =
  let h = Families.path 3 in
  let seeds = [ 2 ] and steps = 1_500 in
  let pk1 = P1.sweep ~algo:"cc1" ~topo:"line3" ~seeds ~steps h in
  let pk2 = P2.sweep ~algo:"cc2" ~topo:"line3" ~seeds ~steps h in
  let pk3 = P3.sweep ~algo:"cc3" ~topo:"line3" ~seeds ~steps h in
  check "cc1 tables built" true (P1.Pk.built pk1);
  check "cc2 tables built" true (P2.Pk.built pk2);
  check "cc3 tables built" true (P3.Pk.built pk3)

(* Skipped tables (enumeration over the cap) must degrade to the guard
   closures process by process, never change behaviour.  ring5/cc2 under a
   tiny cap skips everything (pure fallback through the packed plumbing);
   line3/cc1 probes for a cap that builds some processes but not others
   (the mixed path: table hits and closure cells in the same run). *)
let test_driver_parity_capped_fallback () =
  let h5 = Families.by_name "ring5" in
  let pk = P2.Pk.build ~cap:64 h5 in
  check "ring5/cc2 capped build skips" true (P2.Pk.coverage pk < 1.0);
  let mk_workload () = Workload.always_requesting h5 in
  P2.run_pair ~name:"cc2/ring5/capped" ~hooks:(P2.Pk.hooks pk) ~mk_workload
    ~init:`Random ~seed:3 ~steps:1_200 h5;
  let h3 = Families.path 3 in
  let mixed =
    List.find_opt
      (fun cap ->
        let pk = P1.Pk.build ~cap h3 in
        let c = P1.Pk.coverage pk in
        c > 0.0 && c < 1.0)
      [ 500; 5_000; 50_000; 500_000; 5_000_000 ]
  in
  match mixed with
  | None -> ()  (* no cap separates line3's processes; pure paths suffice *)
  | Some cap ->
    let pk = P1.Pk.build ~cap h3 in
    let mk_workload () = Workload.always_requesting h3 in
    P1.run_pair ~name:"cc1/line3/mixed" ~hooks:(P1.Pk.hooks pk) ~mk_workload
      ~init:`Random ~seed:4 ~steps:1_500 h3

(* Beyond 16 processes the tables cannot pack a configuration, and
   [try_build] hands out interner-only hooks: no stored table, yet the
   driver's memo serves scans on them, trace-identical to the closures. *)
let test_driver_parity_beyond_16 () =
  let h = Families.pair_ring 24 in
  let pk = P2.Pk.try_build h in
  check "ring24: no tables" false (P2.Pk.has_tables pk);
  check "ring24: coverage 0" true (P2.Pk.coverage pk = 0.0);
  let hooks = P2.Pk.hooks pk in
  check "ring24: no stored table" false
    (List.exists hooks.Model.pk_built (List.init (H.n h) Fun.id));
  let mk_workload () = Workload.always_requesting h in
  P2.run_pair ~name:"cc2/ring24/interner-only" ~hooks ~mk_workload ~init:`Random
    ~seed:6 ~steps:1_500 h;
  let r =
    P2.R.run ~packed:hooks ~seed:7 ~init:`Random ~daemon:(Daemon.random_subset ())
      ~workload:(mk_workload ()) ~steps:300 h
  in
  check "ring24: memo hits" true (List.assoc "engine_scan_hits" r.Driver.profile > 0)

(* The ablation and the baselines take the packed engine through the same
   catalog path as the paper's algorithms; their tables cover anywhere
   from none to all of the processes under the interactive budget. *)
let test_driver_parity_catalog () =
  let coverages = ref [] in
  List.iter
    (fun name ->
      let r =
        match Systems.resolve name with
        | Some r -> r
        | None -> Alcotest.failf "%s is not in the catalog" name
      in
      let (module S) = r.Systems.sys in
      let module P = Driver_parity (S) (S) in
      List.iter
        (fun topo ->
          let h = Families.by_name topo in
          let pk = P.Pk.build ~cap:Snapcc_mc.Packed.startup_cap h in
          coverages := P.Pk.coverage pk :: !coverages;
          P.run_pair ~name:(name ^ "/" ^ topo) ~hooks:(P.Pk.hooks pk)
            ~mk_workload:(fun () -> Workload.always_requesting h)
            ~init:`Random ~seed:3 ~steps:1_500 h)
        [ "fig1"; "ring6"; "ring4" ])
    [ "dining"; "central"; "token-only"; "cc1-no-token" ];
  check "some run is fully table-driven" true (List.mem 1.0 !coverages);
  check "some run falls back to closures" true
    (List.exists (fun c -> c < 1.0) !coverages)

(* ---- mp-engine parity ---- *)

module Mp_parity
    (A : Model.ALGO)
    (Sys : Snapcc_mc.System.S with type state = A.state) =
struct
  module E = Snapcc_mp.Mp_engine.Make (A)
  module Pk = Snapcc_mc.Packed.Make (Sys)

  (* Two engines, same seed, each feeding its own workload from its own
     observations; corrupt both mid-run.  Configurations must agree at
     every comparison point, counters at the end. *)
  let run_pair ~name ~hooks ~init ~seed ~steps h =
    let go packed = E.create ?packed ~seed ~init h in
    let ec = go None in
    let ep = go (Some hooks) in
    check (name ^ ": fast path on") true (E.engine_kind ep = `Packed);
    let wc = Workload.always_requesting h in
    let wp = Workload.always_requesting h in
    for i = 1 to steps do
      if i = steps / 2 then begin
        E.corrupt ec ~victims:[ 0 ];
        E.corrupt ep ~victims:[ 0 ]
      end;
      let e1 = E.step ec ~inputs:(Workload.inputs wc (E.obs ec)) in
      let e2 = E.step ep ~inputs:(Workload.inputs wp (E.obs ep)) in
      check (name ^ ": same event") true (e1 = e2);
      Workload.observe wc ~step:i (E.obs ec);
      Workload.observe wp ~step:i (E.obs ep);
      if i mod 100 = 0 then
        check (name ^ ": same configuration") true
          (Array.for_all2 Obs.equal (E.obs ec) (E.obs ep))
    done;
    check (name ^ ": still packed") true (E.engine_kind ep = `Packed);
    check_int (name ^ ": sends") (E.messages_sent ec) (E.messages_sent ep);
    check_int (name ^ ": deliveries") (E.messages_delivered ec)
      (E.messages_delivered ep);
    check_int (name ^ ": staleness") (E.max_staleness ec) (E.max_staleness ep);
    check (name ^ ": final configuration") true
      (Array.for_all2 Obs.equal (E.obs ec) (E.obs ep))
end

module M1 = Mp_parity (X.Cc1) (Sys_cc1)
module M2 = Mp_parity (X.Cc2) (Sys_cc2)
module M3 = Mp_parity (X.Cc3) (Sys_cc3)

let test_mp_parity () =
  let h = Families.single 2 in
  let hooks1 = M1.Pk.hooks (M1.Pk.build h) in
  let hooks2 = M2.Pk.hooks (M2.Pk.build h) in
  let hooks3 = M3.Pk.hooks (M3.Pk.build h) in
  List.iter
    (fun (seed, init) ->
      let tag =
        Printf.sprintf "seed%d/%s" seed
          (match init with `Canonical -> "canon" | `Random -> "rand")
      in
      M1.run_pair ~name:("mp cc1 " ^ tag) ~hooks:hooks1 ~init ~seed
        ~steps:3_000 h;
      M2.run_pair ~name:("mp cc2 " ^ tag) ~hooks:hooks2 ~init ~seed
        ~steps:3_000 h;
      M3.run_pair ~name:("mp cc3 " ^ tag) ~hooks:hooks3 ~init ~seed
        ~steps:3_000 h)
    [ (1, `Canonical); (9, `Random) ]

let test_mp_parity_line3 () =
  let h = Families.path 3 in
  let hooks = M1.Pk.hooks (M1.Pk.build h) in
  M1.run_pair ~name:"mp cc1 line3" ~hooks ~init:`Random ~seed:7 ~steps:4_000 h

(* ---- networked wire parity ---- *)

(* The wire engine changes bytes, not behaviour: a packed-delta run and a
   full-snapshot run of the same seed produce the same scheduler events,
   states and monitor verdicts — only [bytes_delivered] differs. *)
let net_pair ~algo ~steps ~plan ~burst h =
  let go engine =
    let cfg =
      { Net.Orchestrator.algo; seed = 11; init = `Canonical;
        deliver_bias = 0.5; steps; plan; burst; engine }
    in
    match
      Net.Orchestrator.run ~mode:Net.Spawn.Fork
        ~workload:(Workload.always_requesting h) cfg h
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let rc = go `Closure in
  let rp = go `Packed in
  check_int "same convenes" rc.Net.Orchestrator.convenes
    rp.Net.Orchestrator.convenes;
  check_int "same sends" rc.Net.Orchestrator.sent rp.Net.Orchestrator.sent;
  check_int "same deliveries" rc.Net.Orchestrator.delivered
    rp.Net.Orchestrator.delivered;
  check_int "same violations"
    (List.length rc.Net.Orchestrator.violations)
    (List.length rp.Net.Orchestrator.violations);
  check "same stabilization" true
    (rc.Net.Orchestrator.stabilized_in = rp.Net.Orchestrator.stabilized_in);
  check "same final configuration" true
    (Array.for_all2 Obs.equal rc.Net.Orchestrator.final_obs
       rp.Net.Orchestrator.final_obs);
  check "marshal cost is engine-independent" true
    (rc.Net.Orchestrator.bytes_sent = rp.Net.Orchestrator.bytes_sent);
  check "packed wire is cheaper" true
    (rp.Net.Orchestrator.bytes_delivered
    < rc.Net.Orchestrator.bytes_delivered);
  (rc, rp)

let test_net_parity_zero_fault () =
  let h = Families.fig1 () in
  let rc, rp = net_pair ~algo:"cc2" ~steps:1_200 ~plan:Faults.none ~burst:None h in
  check_int "nothing lost" 0 rc.Net.Orchestrator.dropped;
  check_int "no resyncs needed" 0 rp.Net.Orchestrator.resyncs;
  check_int "no rejected frames" 0 rp.Net.Orchestrator.malformed

let test_net_parity_faulty_soak () =
  let h = Families.by_name "ring5" in
  let plan =
    match Faults.parse "drop=0.05,delay=2,dup=0.02,corrupt=0.02" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let _, rp = net_pair ~algo:"cc1" ~steps:1_500 ~plan ~burst:(Some 750) h in
  check "corrupted frames rejected" true (rp.Net.Orchestrator.malformed > 0);
  check_int "decoder rejections match node reports"
    rp.Net.Orchestrator.malformed rp.Net.Orchestrator.node_decode_errors;
  check "resynced links recover" true (rp.Net.Orchestrator.resyncs >= 0)

(* ---- XOR-delta codec ---- *)

let le64 id = String.init 8 (fun k -> Char.chr ((id lsr (8 * k)) land 0xff))

let test_delta_roundtrip () =
  (* packed-id payloads: every pair out of a domain-sized id range *)
  for i = 0 to 40 do
    for j = 0 to 40 do
      let base = le64 (i * 97) and target = le64 (j * 131) in
      match Delta.encode ~base ~target with
      | None -> Alcotest.fail "id payloads must be encodable"
      | Some d -> (
        check "heartbeat is 5 bytes" true (i * 97 <> j * 131 || String.length d = 5);
        match Delta.apply ~base d with
        | Some t -> check "roundtrip" true (t = target)
        | None -> Alcotest.fail "delta failed to apply")
    done
  done;
  (* marshal-sized payloads, including lengths that are not word multiples *)
  let rng = Random.State.make [| 4; 2 |] in
  for len = 1 to 64 do
    let mk () = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    let base = mk () and target = mk () in
    match Delta.encode ~base ~target with
    | None -> Alcotest.failf "length %d must encode" len
    | Some d -> (
      match Delta.apply ~base d with
      | Some t -> check "roundtrip" true (t = target)
      | None -> Alcotest.failf "length %d failed to apply" len)
  done

(* Every marshalled state in the checker's interned domain — the exact set
   of payloads the packed wire can carry in form-0 frames — roundtrips
   against every other state of the same process. *)
let test_delta_roundtrip_domain_states () =
  let h = Families.single 2 in
  List.iter
    (fun key ->
      let entry =
        match Snapcc_mc.Systems.find key with
        | Some e -> e
        | None -> Alcotest.failf "unknown mc system %s" key
      in
      let module S = (val entry.Snapcc_mc.Systems.make "tree") in
      for p = 0 to H.n h - 1 do
        let dom = List.map (fun st -> Marshal.to_string st []) (S.domain h p) in
        List.iter
          (fun base ->
            List.iter
              (fun target ->
                match Delta.encode ~base ~target with
                | None ->
                  (* same-process marshals can still differ in length
                     (sharing); only equal lengths are deltable *)
                  check "only length mismatch refuses" true
                    (String.length base <> String.length target)
                | Some d -> (
                  match Delta.apply ~base d with
                  | Some t -> check "domain roundtrip" true (t = target)
                  | None -> Alcotest.fail "domain delta failed to apply"))
              dom)
          dom
      done)
    [ "cc1"; "cc2"; "cc3" ]

let test_delta_rejects_corruption () =
  let base = le64 0x0123_4567_89ab in
  let target = le64 0xfedc_ba98_7654 in
  let d =
    match Delta.encode ~base ~target with
    | Some d -> d
    | None -> Alcotest.fail "encode failed"
  in
  (* every single-byte corruption of the delta is rejected, never applied
     to a wrong state *)
  for i = 0 to String.length d - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string d in
      Bytes.set b i (Char.chr (Char.code d.[i] lxor (1 lsl bit)));
      match Delta.apply ~base (Bytes.to_string b) with
      | None -> ()
      | Some t ->
        Alcotest.(check string)
          (Printf.sprintf "flip %d.%d must not fabricate a state" i bit)
          target t
    done
  done;
  (* a stale base fails the checksum instead of yielding garbage *)
  check "wrong base rejected" true
    (Delta.apply ~base:(le64 0xdead) d = None);
  (* truncations *)
  for len = 0 to String.length d - 1 do
    check "truncation rejected" true
      (Delta.apply ~base (String.sub d 0 len) = None)
  done;
  (* out-of-range word index *)
  let bogus = "\x01\xff\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" in
  check "bad index rejected" true (Delta.apply ~base bogus = None);
  check "length mismatch unencodable" true
    (Delta.encode ~base ~target:(le64 1 ^ le64 2) = None)

(* ---- node protocol: resync discipline ---- *)

(* Speak the packed wire protocol to a forked node directly and force the
   paths the soak never hits: an out-of-sync delta base, an unknown packed
   id, an undecodable delta.  Each must answer [Resync] (a transient
   fault, not a decode error); a corrupted frame must still answer
   [Decode_error]; and the final [Bye_ack] must count only the latter. *)
let test_node_resync_protocol () =
  let h = Families.single 2 in
  let r =
    match Systems.resolve "cc1" with
    | Some r -> r
    | None -> Alcotest.fail "cc1 missing from the catalog"
  in
  let tag =
    match r.Systems.tag with
    | Some t -> t
    | None -> Alcotest.fail "cc1 has no wire tag"
  in
  let (module A) = r.Systems.sys in
  (* the packed ids the node decodes: the interned state domain *)
  let module Enc = Snapcc_mc.Encode.Make (A) in
  let enc = Enc.create h in
  let nodes = Net.Spawn.launch Net.Spawn.Fork ~n:1 in
  let fd = nodes.(0).Net.Spawn.fd in
  let send msg = Net.Wire.write fd (Codec.encode ~algo:tag msg) in
  let recv () =
    match Net.Wire.read fd with
    | Error _ -> Alcotest.fail "node hung up"
    | Ok body -> (
      match Codec.decode ~expect:tag body with
      | Ok (_, msg) -> msg
      | Error e -> Alcotest.failf "bad reply: %s" (Codec.error_to_string e))
  in
  let expect_resync name =
    match recv () with
    | Codec.Resync _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected a resync")
  in
  let core = A.init h 0 and nb = A.init h 1 in
  send
    (Codec.Init
       { seed = 0; topo = Snapcc_hypergraph.Hypergraph_io.to_string h;
         core = Marshal.to_string core [];
         cache = Marshal.to_string [| nb |] [] });
  (match recv () with
   | Codec.Ready -> ()
   | _ -> Alcotest.fail "expected Ready");
  (* a delta against a base the node never acknowledged *)
  let wclock k = Snapcc_telemetry.Vclock.encode_wire [| 1; k |] in
  send
    (Codec.Deliver_delta
       { src = 1; seq = 0; base_seq = 5; delta = ""; clock = wclock 2 });
  expect_resync "stale base";
  (* a full snapshot naming an id outside the interned domain *)
  send
    (Codec.Deliver_full
       { src = 1; seq = 0; form = 1; payload = le64 max_int;
         clock = wclock 2 });
  expect_resync "unknown id";
  (* a real full snapshot: the node accepts and acknowledges *)
  let nb_bytes = Marshal.to_string nb [] in
  let id =
    match Enc.find enc 1 nb with
    | Some id -> id
    | None -> Alcotest.fail "initial state must be in the interned domain"
  in
  send
    (Codec.Deliver_full
       { src = 1; seq = 1; form = 1; payload = le64 id; clock = wclock 2 });
  (match recv () with
   | Codec.Delivered -> ()
   | _ -> Alcotest.fail "expected Delivered");
  (* now a delta that does not checksum against that base *)
  let good =
    match Delta.encode ~base:(le64 id) ~target:(le64 (id + 1)) with
    | Some d -> d
    | None -> Alcotest.fail "encode failed"
  in
  let mangled =
    let b = Bytes.of_string good in
    Bytes.set b (Bytes.length b - 1) '\xff';
    Bytes.to_string b
  in
  send
    (Codec.Deliver_delta
       { src = 1; seq = 2; base_seq = 1; delta = mangled; clock = wclock 3 });
  expect_resync "undecodable delta";
  (* a delta onto an acknowledged base applies *)
  check "ids are a bijection" true
    (Marshal.to_string (Enc.state enc 1 id) [] = nb_bytes);
  send
    (Codec.Deliver_delta
       { src = 1; seq = 2; base_seq = 1; delta = good; clock = wclock 3 });
  (match recv () with
   | Codec.Delivered ->
     (* seq 2's payload names id+1, which may or may not be interned; the
        node accepted it because the delta checksummed — the id range is
        checked by of_id at decode time, so id+1 must have been valid *)
     ()
   | Codec.Resync _ ->
     (* id+1 past the end of the domain: also a legal answer *)
     ()
   | _ -> Alcotest.fail "expected Delivered or Resync");
  (* frame-level corruption is still a decode error, not a resync *)
  let rng = Random.State.make [| 13 |] in
  let fclock = Snapcc_telemetry.Vclock.encode_full [| 1; 4 |] in
  let frame =
    Codec.encode ~algo:tag
      (Codec.Deliver { src = 1; state = nb_bytes; clock = fclock })
  in
  send (Codec.Deliver { src = 1; state = nb_bytes; clock = fclock });
  (match recv () with
   | Codec.Delivered -> ()
   | _ -> Alcotest.fail "v1 deliver still works");
  Net.Wire.write fd (Codec.corrupt_body rng frame);
  (match recv () with
   | Codec.Decode_error _ -> ()
   | _ -> Alcotest.fail "corrupt frame must be a decode error");
  send Codec.Bye;
  (match recv () with
   | Codec.Bye_ack { decode_errors; _ } ->
     (* resyncs were transient faults, not decode errors *)
     check_int "only the corrupt frame counted" 1 decode_errors
   | _ -> Alcotest.fail "expected Bye_ack");
  Net.Spawn.shutdown nodes

let suite =
  [ ( "packed",
      [ Alcotest.test_case "driver parity on single2 (all modes)" `Quick
          test_driver_parity_single2;
        Alcotest.test_case "driver parity on line3" `Slow
          test_driver_parity_line3;
        Alcotest.test_case "driver parity beyond 16 procs" `Quick
          test_driver_parity_beyond_16;
        Alcotest.test_case "capped tables fall back soundly" `Slow
          test_driver_parity_capped_fallback;
        Alcotest.test_case "driver parity: ablation and baselines" `Slow
          test_driver_parity_catalog;
        Alcotest.test_case "mp parity (all algorithms)" `Quick test_mp_parity;
        Alcotest.test_case "mp parity on line3" `Slow test_mp_parity_line3;
        Alcotest.test_case "net wire parity, zero faults" `Quick
          test_net_parity_zero_fault;
        Alcotest.test_case "net wire parity, faulty soak" `Slow
          test_net_parity_faulty_soak;
        Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
        Alcotest.test_case "delta roundtrip over mc state domains" `Quick
          test_delta_roundtrip_domain_states;
        Alcotest.test_case "delta rejects corruption" `Quick
          test_delta_rejects_corruption;
        Alcotest.test_case "node resync discipline" `Quick
          test_node_resync_protocol ] ) ]

(* The packed-engine parity contract: a run whose guard scans the memo
   serves (driver) or whose snapshots travel as packed ids (networked
   wire) is trace-identical to the closure run of the same seed — same
   enabled sets, same daemon draws, same observable events.  Plus the
   XOR-delta snapshot codec: exact round-trips, and every malformed or
   out-of-sync frame degrades to a resync/reject, never to a wrong state. *)

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
module Memo = Snapcc_runtime.Memo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Typed System.S instances of the paper's algorithms, sharing the state
   types of X.Cc1/Cc2/Cc3 through OCaml's applicative functors — the
   bridge that lets the engines consume lib/mc's packed hooks. *)
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

  (* Returns the packed run's memo hits and fallbacks. *)
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
    (match (rc.Driver.trace, rp.Driver.trace) with
     | Some t1, Some t2 ->
       check (name ^ ": step-for-step trace") true
         (Trace.entries t1 = Trace.entries t2)
     | _ -> Alcotest.fail (name ^ ": trace not recorded"));
    let count key = List.assoc key rp.Driver.profile in
    (count "engine_scan_hits", count "engine_scan_fallbacks")

  (* full sweep on one topology, every input mode x init x seed, on one
     hooks value; returns the memo hits over the sweep *)
  let sweep ~algo ~topo ~seeds ~steps h =
    let hooks = Pk.hooks (Pk.build h) in
    let hits = ref 0 in
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
                let served, _ =
                  run_pair ~name ~hooks ~mk_workload ~init ~seed ~steps h
                in
                hits := !hits + served)
              seeds)
          [ `Canonical; `Random ])
      (input_modes h);
    !hits
end

module P1 = Driver_parity (X.Cc1) (Sys_cc1)
module P2 = Driver_parity (X.Cc2) (Sys_cc2)
module P3 = Driver_parity (X.Cc3) (Sys_cc3)

(* Each sweep must actually have exercised the memo. *)
let driver_sweeps ~topo ~seeds ~steps h =
  let served algo hits =
    check (algo ^ "/" ^ topo ^ ": memo served scans") true (hits > 0)
  in
  served "cc1" (P1.sweep ~algo:"cc1" ~topo ~seeds ~steps h);
  served "cc2" (P2.sweep ~algo:"cc2" ~topo ~seeds ~steps h);
  served "cc3" (P3.sweep ~algo:"cc3" ~topo ~seeds ~steps h)

let test_driver_parity_single2 () =
  driver_sweeps ~topo:"single2" ~seeds:[ 1; 5 ] ~steps:2_000 (Families.single 2)

let test_driver_parity_line3 () =
  driver_sweeps ~topo:"line3" ~seeds:[ 2 ] ~steps:1_500 (Families.path 3)

(* Hooks under a small bound must degrade to the guard closures, never
   change behaviour.  [capped_pair] steps a closure engine and a packed
   one from the same random start, corrupting every process of both at
   the [faults] steps, and checks every report and observation.  It
   returns where the packed engine dropped to closures — the step and
   whether a corruption's re-intern or a step's did it, with the memo
   hits at that point — and the memo hits at the end. *)
module E2 = P2.R.E

let capped_pair ~name ~hooks ~faults ~steps h =
  let engine packed =
    ( E2.create ~seed:3 ~init:`Random ?packed
        ~daemon:(Daemon.random_subset ()) h,
      Workload.always_requesting h )
  in
  let ec, wc = engine None and ep, wp = engine (Some hooks) in
  let hits () = List.assoc "engine_scan_hits" (E2.profile ep) in
  let dropped = ref None in
  let note i how =
    if !dropped = None && E2.engine_kind ep = `Closure then
      dropped := Some (i, how, hits ())
  in
  for i = 0 to steps - 1 do
    if List.mem i faults then begin
      let victims = List.init (H.n h) Fun.id in
      E2.corrupt ec ~victims ();
      E2.corrupt ep ~victims ();
      note i `Corrupt
    end;
    let rc = E2.step ec ~inputs:(Workload.inputs wc (E2.obs ec)) in
    let rp = E2.step ep ~inputs:(Workload.inputs wp (E2.obs ep)) in
    if rc <> rp then Alcotest.failf "%s: step %d reports differ" name i;
    Workload.observe wc ~step:i (E2.obs ec);
    Workload.observe wp ~step:i (E2.obs ep);
    if not (Array.for_all2 Obs.equal (E2.obs ec) (E2.obs ep)) then
      Alcotest.failf "%s: step %d configurations differ" name i;
    note i `Step
  done;
  (!dropped, hits ())

(* (a) An interner bounded at [cap] states per process overflows mid-run,
   in a step (Engine.step's handler) and in a corruption
   (Engine.reintern's): the run stays identical, the engine reads
   [`Closure] from then on, and the memo serves nothing more.  (b) A memo
   of 4 entries per process stops storing (Memo.add's full table), so
   more scans fall back than on the default memo, with the same trace. *)
let test_capped_hooks () =
  let h = Families.by_name "ring5" in
  let steps = 1_200 in
  let overflow ~name ~cap ~faults ~how =
    let hooks = P2.Pk.hooks (P2.Pk.build ~cap h) in
    match capped_pair ~name ~hooks ~faults ~steps h with
    | None, _ -> Alcotest.failf "%s: the interner never overflowed" name
    | Some (i, how', at_drop), at_end ->
      check (name ^ ": dropped mid-run") true (i > 0 && i < steps - 1);
      check (name ^ ": dropped where expected") true (how' = how);
      check (name ^ ": memo served before") true (at_drop > 0);
      check_int (name ^ ": memo serves nothing after") at_drop at_end
  in
  overflow ~name:"cc2/ring5/cap32" ~cap:32 ~faults:[] ~how:`Step;
  overflow ~name:"cc2/ring5/cap128+faults" ~cap:128
    ~faults:(List.init 100 (fun k -> 200 + (10 * k)))
    ~how:`Corrupt;
  let mk_workload () = Workload.always_requesting h in
  let pair name hooks =
    P2.run_pair ~name ~hooks ~mk_workload ~init:`Random ~seed:3 ~steps h
  in
  let _, fallbacks = pair "cc2/ring5/memo" (P2.Pk.hooks (P2.Pk.build h)) in
  let small =
    { (P2.Pk.hooks (P2.Pk.build h)) with Model.pk_memo = Memo.create ~cap:4 h }
  in
  let _, fallbacks_small = pair "cc2/ring5/memo-cap4" small in
  check "a full memo falls back more" true (fallbacks_small > fallbacks)

(* Any topology gets interner-only hooks, 24 processes included: the
   driver's memo serves scans on them, trace-identical to the closures. *)
let test_driver_parity_beyond_16 () =
  let h = Families.pair_ring 24 in
  let hits, _ =
    P2.run_pair ~name:"cc2/ring24" ~hooks:(P2.Pk.hooks (P2.Pk.build h))
      ~mk_workload:(fun () -> Workload.always_requesting h)
      ~init:`Random ~seed:6 ~steps:1_500 h
  in
  check "ring24: memo hits" true (hits > 0)

(* The ablation and the baselines take the packed engine through the same
   catalog path as the paper's algorithms.  Each algorithm's runs must
   have been served by the memo, and some run must mix memo answers with
   closure scans (misses, and scans that read beyond N[p] — Central's
   coordinator — which are never stored). *)
let test_driver_parity_catalog () =
  let mixed = ref false in
  List.iter
    (fun name ->
      let r =
        match Systems.resolve name with
        | Some r -> r
        | None -> Alcotest.failf "%s is not in the catalog" name
      in
      let (module S) = r.Systems.sys in
      let module P = Driver_parity (S) (S) in
      let hits =
        List.fold_left
          (fun acc topo ->
            let h = Families.by_name topo in
            let hits, fallbacks =
              P.run_pair ~name:(name ^ "/" ^ topo)
                ~hooks:(P.Pk.hooks (P.Pk.build h))
                ~mk_workload:(fun () -> Workload.always_requesting h)
                ~init:`Random ~seed:3 ~steps:1_500 h
            in
            if hits > 0 && fallbacks > 0 then mixed := true;
            acc + hits)
          0 [ "fig1"; "ring6"; "ring4" ]
      in
      check (name ^ ": memo served scans") true (hits > 0))
    [ "dining"; "central"; "token-only"; "cc1-no-token" ];
  check "some run mixes memo answers and closure scans" true !mixed

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
  let nodes, conns = Net.Spawn.launch Net.Spawn.Fork ~n:1 in
  let c = conns.(0) in
  let send_raw body = Net.Wire.queue c body; Net.Wire.flush c in
  let send msg = send_raw (Codec.encode ~algo:tag msg) in
  let recv () =
    match Net.Wire.read c with
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
  send_raw (Codec.corrupt_body rng frame);
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

(* ---- orchestrator: deferred replies ---- *)

(* The orchestrator's deferral code ([Orchestrator.Peers]) against a
   forked node, on the paths no measured run reaches: more deliveries
   than the window before one activation, with a corrupted frame among
   them, and a delta on a base the node never acknowledged, whose
   [Resync] must be recovered before the node acts.  The node's echoed
   clock counts every snapshot it applied. *)
let test_deferred_replies () =
  let module Peers = Net.Orchestrator.Peers in
  let module Vclock = Snapcc_telemetry.Vclock in
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
  let module Enc = Snapcc_mc.Encode.Make (A) in
  let enc = Enc.create h in
  let nodes, conns = Net.Spawn.launch Net.Spawn.Fork ~n:1 in
  (* a write or read that would block for good fails instead *)
  Unix.setsockopt_float nodes.(0).Net.Spawn.fd Unix.SO_SNDTIMEO 10.;
  Unix.setsockopt_float nodes.(0).Net.Spawn.fd Unix.SO_RCVTIMEO 10.;
  let encode msg = Codec.encode ~algo:tag msg in
  let core = A.init h 0 and nb = A.init h 1 in
  let id =
    match Enc.find enc 1 nb with
    | Some id -> id
    | None -> Alcotest.fail "initial state must be in the interned domain"
  in
  let full ~seq ~k =
    encode
      (Codec.Deliver_full
         { src = 1; seq; form = 1; payload = le64 id;
           clock = Vclock.encode_wire [| 1; k |] })
  in
  let resent = ref [] in
  let peers =
    Peers.create ~tag conns ~resend:(fun p ~slot ~step ~clock ->
        resent := (p, slot, step) :: !resent;
        full ~seq:1_000 ~k:clock.(1))
  in
  Peers.request peers 0
    (Codec.Init
       { seed = 0; topo = Snapcc_hypergraph.Hypergraph_io.to_string h;
         core = Marshal.to_string core [];
         cache = Marshal.to_string [| nb |] [] });
  (match Peers.reply peers 0 with
   | Codec.Ready -> ()
   | _ -> Alcotest.fail "expected Ready");
  let activate () =
    match
      Peers.exchange peers 0
        (Codec.Activate { step = 0; req_in = [| false; false |];
                          req_out = [| false; false |] })
    with
    | Codec.Activated { label; clock; _ } -> (
      match Vclock.decode_full clock with
      | Some c -> (label <> None, c)
      | None -> Alcotest.fail "bad clock echo")
    | _ -> Alcotest.fail "expected Activated"
  in
  (* [window + 40] snapshots and one corrupted frame, all deferred *)
  let deliveries = Peers.window + 40 in
  let rng = Random.State.make [| 5 |] in
  let deliver body k = Peers.deliver peers 0 body ~slot:0 ~step:k ~clock:[| 1; k |] in
  for k = 1 to deliveries do
    deliver (full ~seq:k ~k) k;
    if k = 100 then
      Peers.reject peers 0 (Codec.corrupt_body rng (full ~seq:0 ~k));
    check "never more than a window deferred" true
      (Peers.pending peers 0 <= Peers.window)
  done;
  check "the window drained the node" true
    (Peers.pending peers 0 < deliveries);
  let acted, c = activate () in
  check_int "every deferred reply read" 0 (Peers.pending peers 0);
  let ticks = 1 + deliveries + Bool.to_int acted in
  check "the node applied every snapshot before acting" true
    (c = [| ticks; deliveries |]);
  (* a delta on a base the node never acknowledged: the node answers
     [Resync], refuses the next activation, and acts once the full frame
     has been sent again *)
  let k = deliveries + 1 in
  deliver
    (encode
       (Codec.Deliver_delta
          { src = 1; seq = k; base_seq = 999; delta = "";
            clock = Vclock.encode_wire [| 1; k |] }))
    k;
  let acted2, c = activate () in
  check "the resync was recovered once, from its own record" true
    (!resent = [ (0, 0, k) ]);
  check_int "and its retransmission checked" 0 (Peers.pending peers 0);
  check "the retransmitted snapshot was applied before acting" true
    (c = [| ticks + 1 + Bool.to_int acted2; k |]);
  (* a reply other than the predicted one fails the run *)
  Peers.reject peers 0 (full ~seq:(k + 2) ~k);
  (match Peers.drain peers 0 with
   | () -> Alcotest.fail "an accepted frame predicted corrupt must fail"
   | exception Failure _ -> ());
  Peers.request peers 0 Codec.Bye;
  (match Peers.reply peers 0 with
   | Codec.Bye_ack { frames; decode_errors } ->
     (* Init, the deliveries, the corrupted frame, three activation
        requests, the stale delta, its retransmission, one more
        delivery and Bye *)
     check_int "frames the node received" (deliveries + 9) frames;
     check_int "only the corrupted frame failed to decode" 1 decode_errors
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
        Alcotest.test_case "capped hooks fall back soundly" `Slow
          test_capped_hooks;
        Alcotest.test_case "driver parity: ablation and baselines" `Slow
          test_driver_parity_catalog;
        Alcotest.test_case "net wire parity, zero faults" `Quick
          test_net_parity_zero_fault;
        Alcotest.test_case "net wire parity, faulty soak" `Slow
          test_net_parity_faulty_soak;
        Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
        Alcotest.test_case "delta roundtrip over mc state domains" `Quick
          test_delta_roundtrip_domain_states;
        Alcotest.test_case "delta rejects corruption" `Quick
          test_delta_rejects_corruption;
        Alcotest.test_case "orchestrator deferred replies" `Quick
          test_deferred_replies;
        Alcotest.test_case "node resync discipline" `Quick
          test_node_resync_protocol ] ) ]

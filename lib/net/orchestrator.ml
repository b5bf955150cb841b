module H = Snapcc_hypergraph.Hypergraph
module HIO = Snapcc_hypergraph.Hypergraph_io
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Spec = Snapcc_analysis.Spec
module Observer = Snapcc_analysis.Observer
module Workload = Snapcc_workload.Workload
module Tele = Snapcc_telemetry
module Vclock = Snapcc_telemetry.Vclock
module Sem = Snapcc_mp.Mp_semantics

type config = {
  algo : string;
  seed : int;
  init : [ `Canonical | `Random ];
  deliver_bias : float;
  steps : int;
  plan : Faults.plan;
  burst : int option;
  engine : [ `Packed | `Closure ];
}

(* How many consecutive deltas a link may send before it must refresh the
   receiver with a full snapshot (bounds resynchronization time after any
   undetected divergence). *)
let keyframe_interval = 16

type result = {
  steps : int;
  convenes : int;
  terminations : int;
  violations : Spec.violation list;
  sent : int;
  delivered : int;
  dropped : int;
  malformed : int;
  resyncs : int;
  bytes_sent : int;
  bytes_delivered : int;
  in_flight : int;
  max_staleness : int;
  latencies_us : int list;
  burst_step : int option;
  recover_step : int option;
  stabilized_in : int option;
  node_frames : int;
  node_decode_errors : int;
  round_trips : int;
  wall_s : float;
  final_obs : Obs.t array;
}

let fail fmt = Printf.ksprintf failwith fmt

module Peers = struct
  (* The deferred replies of one node, oldest first, in a ring that grows
     by doubling: nothing is allocated per frame.  [slots] holds the
     neighbour slot of a delivery, [resent] for a retransmission or
     [rejected] for a corrupted frame. *)
  let resent = -1 and rejected = -2

  type ring = {
    mutable slots : int array;
    mutable steps : int array;
    mutable clocks : Vclock.t array;
    mutable first : int;
    mutable count : int;
  }

  type t = {
    tag : int;
    conns : Wire.conn array;
    resend : int -> slot:int -> step:int -> clock:Vclock.t -> string;
    deferred : ring array;
    ahead : int array;  (* deferred replies due before the awaited answer *)
    mutable round_trips : int;
    mutable waiting : bool;  (* the current wait is counted already *)
  }

  let push q ~slot ~step ~clock =
    let cap = Array.length q.slots in
    if q.count = cap then begin
      let grow a = Array.init (2 * cap) (fun i -> a.((q.first + i) mod cap)) in
      q.slots <- grow q.slots;
      q.steps <- grow q.steps;
      q.clocks <- grow q.clocks;
      q.first <- 0
    end;
    let i = (q.first + q.count) mod Array.length q.slots in
    q.slots.(i) <- slot;
    q.steps.(i) <- step;
    q.clocks.(i) <- clock;
    q.count <- q.count + 1

  (* Deferred replies are [Delivered] (15 bytes on the wire) or
     [Decode_error] (under 100): a full window stays far below a socket
     buffer, so a node never blocks writing replies that the orchestrator
     has not read yet, and the orchestrator's own writes always drain. *)
  let window = 256

  let create ~tag ~resend conns =
    let ring _ =
      { slots = Array.make 8 0; steps = Array.make 8 0;
        clocks = Array.make 8 [||]; first = 0; count = 0 }
    in
    { tag; conns; resend; deferred = Array.map ring conns;
      ahead = Array.map (fun _ -> 0) conns; round_trips = 0; waiting = false }

  let read t p =
    let c = t.conns.(p) in
    if not (Wire.has_frame c) then begin
      (* every node's queue leaves before this one blocks, so the other
         nodes work while this one answers *)
      Array.iter Wire.flush t.conns;
      if not t.waiting then begin
        t.round_trips <- t.round_trips + 1;
        t.waiting <- true
      end
    end;
    match Wire.read c with
    | Error `Eof -> fail "net: node %d died" p
    | Error `Truncated -> fail "net: node %d died inside a frame" p
    | Error (`Oversized len) ->
      fail "net: oversized frame from node %d (%d bytes)" p len
    | Ok body -> (
      match Codec.decode ~expect:t.tag body with
      | Ok (_, msg) -> msg
      | Error e ->
        fail "net: bad frame from node %d: %s" p (Codec.error_to_string e))

  (* Read and check the oldest deferred reply.  A retransmission is
     queued behind everything already queued for the node, so its own
     reply joins the back of the ring. *)
  let check t p =
    let q = t.deferred.(p) in
    let i = q.first in
    let slot = q.slots.(i) and step = q.steps.(i) and clock = q.clocks.(i) in
    q.clocks.(i) <- [||];
    q.first <- (i + 1) mod Array.length q.slots;
    q.count <- q.count - 1;
    match read t p with
    | Codec.Delivered when slot <> rejected -> ()
    | Codec.Decode_error _ when slot = rejected -> ()
    | Codec.Resync _ when slot >= 0 ->
      Wire.queue t.conns.(p) (t.resend p ~slot ~step ~clock);
      push q ~slot:resent ~step ~clock:[||]
    | _ when slot = rejected -> fail "net: node %d accepted a corrupted frame" p
    | _ -> fail "net: node %d: expected delivered" p

  let drain t p =
    t.waiting <- false;
    while t.deferred.(p).count > 0 do
      check t p
    done

  let deliver t p body ~slot ~step ~clock =
    Wire.queue t.conns.(p) body;
    let q = t.deferred.(p) in
    push q ~slot ~step ~clock;
    if q.count >= window then drain t p

  let reject t p body = deliver t p body ~slot:rejected ~step:0 ~clock:[||]

  let request t p msg =
    t.ahead.(p) <- t.deferred.(p).count;
    Wire.queue t.conns.(p) (Codec.encode ~algo:t.tag msg)

  let reply t p =
    t.waiting <- false;
    for _ = 1 to t.ahead.(p) do
      check t p
    done;
    t.ahead.(p) <- 0;
    read t p

  let exchange t p msg =
    request t p msg;
    match reply t p with
    | Codec.Resync _ -> (
      (* the node refused the request: it had refused a snapshot whose
         retransmission, queued while its deferred replies were read,
         is now ahead of the repeated request *)
      request t p msg;
      match reply t p with
      | Codec.Resync _ -> fail "net: node %d refused a request twice" p
      | answer -> answer)
    | answer -> answer

  let pending t p = t.deferred.(p).count
  let round_trips t = t.round_trips
end

module Make (A : Snapcc_mc.System.S) = struct
  (* the packed wire's snapshot ids: both ends intern the declared state
     domain of the shared topology in the same deterministic order, so
     they agree on every id without exchanging a dictionary *)
  module Enc = Snapcc_mc.Encode.Make (A)

  let marshal (v : A.state) = Marshal.to_string v []

  (* per-link sender state of the packed wire format: the last payload
     handed to the receiver (the delta base; its reply is checked later,
     and a frame the receiver could not apply is sent again in full), and
     the keyframe counter *)
  type lstate = {
    mutable acked : (int * int * string * Vclock.t) option;
        (* seq, form, payload, and the clock accepted with that seq — the
           base for delta-form clock trailers *)
    mutable since_key : int;
    mutable next_seq : int;
  }

  let le64 id =
    String.init 8 (fun k -> Char.chr ((id lsr (8 * k)) land 0xff))

  let go ?telemetry ~mode ~workload ~tag (cfg : config) h =
    let enc =
      match cfg.engine with `Packed -> Some (Enc.create h) | `Closure -> None
    in
    let t0 = Unix.gettimeofday () in
    let n = H.n h in
    let plan = cfg.plan in
    let sem = Sem.create ~deliver_bias:cfg.deliver_bias ~seed:cfg.seed h in
    let c0 =
      Sem.initial sem cfg.init ~canonical:(A.init h) ~random:(A.random_init h)
    in
    let states = c0.Sem.cores in
    (* the reference copy of every node's vector clock, which each
       [Activated] echo is checked against *)
    Sem.track_clocks sem ?hub:telemetry (A.observe h states);
    (* links.(dst).(slot) carries snapshots from [neighbors dst].(slot). *)
    let links =
      Array.init n (fun dst ->
          Array.map
            (fun src -> Link.create ~src ~dst ~seed:cfg.seed)
            (H.neighbors h dst))
    in
    Array.iteri
      (fun dst row ->
        Array.iteri
          (fun slot m ->
            match m with
            | Some st ->
              let link = links.(dst).(slot) in
              Link.preload link ~step:0 ~state:(marshal st)
                ~clock:(Vclock.copy (Sem.clock sem (Link.src link)))
            | None -> ())
          row)
      c0.Sem.in_flight;
    (* byte-flips of frames marked corrupt by a link; separate generator so
       the corruption rate does not shift the scheduler's draws *)
    let frame_rng = Random.State.make [| cfg.seed; 0xf17 |] in
    let emit ev =
      match telemetry with Some hub -> Tele.Hub.emit hub ev | None -> ()
    in
    let lstates =
      Array.init n (fun dst ->
          Array.map
            (fun _ -> { acked = None; since_key = 0; next_seq = 0 })
            (H.neighbors h dst))
    in
    (* counters *)
    let sent = ref 0 in
    let delivered = ref 0 in
    let dropped = ref 0 in
    let malformed = ref 0 in
    let resyncs = ref 0 in
    let bytes_sent = ref 0 in
    let bytes_delivered = ref 0 in
    (* the latency log, one word per delivery (a list cell costs three) *)
    let latencies = ref (Array.make 1024 0) and nlatencies = ref 0 in
    let burst_done = ref false in
    let nodes, conns = Spawn.launch mode ~n in
    let cleanup_on_error () =
      Spawn.kill nodes;
      Spawn.shutdown nodes
    in
    try
      (* A [Resync] read back for a queued frame: the node could not apply
         it (lost base, CRC mismatch, unknown id) — a transient fault,
         answered with a full frame, never a wrong state.  Frames queued
         behind it on the link may have been refused or applied, so the
         retransmission carries the link's newest payload with the clock
         of the frame it replaces: the node's cache ends at the newest
         state, and its clock merges every delivered clock and ticks once
         per delivery, as when each reply was awaited. *)
      let resend p ~slot ~step ~clock =
        let lst = lstates.(p).(slot) in
        match lst.acked with
        | None -> fail "net: node %d: expected delivered" p
        | Some (_, form, payload, _) ->
          let src = Link.src links.(p).(slot) in
          incr resyncs;
          emit (Tele.Event.Net_dropped { step; src; dst = p; reason = "resync" });
          let seq = lst.next_seq in
          lst.next_seq <- seq + 1;
          lst.acked <- Some (seq, form, payload, clock);
          lst.since_key <- 0;
          bytes_delivered := !bytes_delivered + 1 + String.length payload;
          Codec.encode ~algo:tag
            (Codec.Deliver_full
               { src; seq; form; payload; clock = Vclock.encode_wire clock })
      in
      let peers = Peers.create ~tag ~resend conns in
      let topo = HIO.to_string h in
      Array.iteri
        (fun p st ->
          Peers.request peers p
            (Codec.Init
               { seed = cfg.seed; topo; core = marshal st;
                 cache = Marshal.to_string c0.Sem.caches.(p) [] }))
        states;
      Array.iteri
        (fun p _ ->
          match Peers.reply peers p with
          | Codec.Ready -> ()
          | _ -> fail "net: node %d: expected ready" p)
        nodes;
      emit
        (Tele.Event.Run_start
           { algo = A.name; daemon = "net-scheduler";
             workload = Workload.name workload; seed = cfg.seed; n;
             m = H.m h; topo });
      let obs () = Array.init n (A.observe h states) in
      Sem.stamp_initial sem;
      let observer = Observer.create ?telemetry h ~initial:(obs ()) in
      let broadcast p =
        let snapshot = marshal states.(p) in
        (* one shared copy per broadcast: link entries never mutate it *)
        let clock = Vclock.copy (Sem.clock sem p) in
        let bytes = String.length snapshot in
        let now = Unix.gettimeofday () in
        Array.iteri
          (fun i q ->
            let step = Sem.steps sem in
            emit (Tele.Event.Net_sent { step; src = p; dst = q; bytes });
            incr sent;
            bytes_sent := !bytes_sent + bytes;
            if Faults.partitioned plan ~step:(step - 1) ~n ~src:p ~dst:q then begin
              emit
                (Tele.Event.Net_dropped
                   { step; src = p; dst = q; reason = "partition" });
              incr dropped
            end
            else begin
              let link = links.(q).(Sem.peer_slot sem p i) in
              let r =
                Link.send link ~plan ~step:(step - 1) ~now ~state:snapshot
                  ~clock
              in
              if r.Link.copies = 0 then begin
                emit
                  (Tele.Event.Net_dropped
                     { step; src = p; dst = q; reason = "drop" });
                incr dropped
              end;
              for _ = 1 to r.Link.evicted do
                emit
                  (Tele.Event.Net_dropped
                     { step; src = p; dst = q; reason = "overflow" });
                incr dropped
              done
            end)
          (H.neighbors h p)
      in
      let activate p ~req_in ~req_out =
        match
          Peers.exchange peers p
            (Codec.Activate { step = Sem.steps sem; req_in; req_out })
        with
        | Codec.Activated { label; core; clock } ->
          states.(p) <- (Marshal.from_string core 0 : A.state);
          let acted = Option.is_some label in
          Sem.on_activated sem p ~acted;
          (* a mismatch with the node's echoed clock is a protocol bug, not
             a fault *)
          (match Vclock.decode_full clock with
           | Some c when c = Sem.clock sem p -> ()
           | Some c ->
             fail "net: node %d clock skew: node %s, expected %s" p
               (Vclock.to_string c)
               (Vclock.to_string (Sem.clock sem p))
           | None -> fail "net: node %d: bad clock echo" p);
          broadcast p;
          emit (Tele.Event.Mp_activated { step = Sem.steps sem; p; label });
          if acted then Sem.stamp sem ~k:Tele.Event.clock_activation p
        | _ -> fail "net: node %d: expected activated" p
      in
      (* Snapshot frame for one delivery under the packed wire format:
         prefer a delta against the link's acknowledged base, fall back
         to a full frame (first contact, form change, keyframe due, or
         the delta would not be smaller).  Returns the frame and its
         snapshot-payload wire cost. *)
      let packed_frame enc lst ~src e =
        let seq = lst.next_seq in
        lst.next_seq <- seq + 1;
        (* a state outside the interned domain has no id and travels as a
           full marshalled snapshot *)
        let st : A.state = Marshal.from_string e.Link.state 0 in
        let form, payload =
          match Enc.find enc src st with
          | Some id -> (1, le64 id)
          | None -> (0, e.Link.state)
        in
        let full =
          (Codec.Deliver_full
             { src; seq; form; payload;
               clock = Vclock.encode_wire e.Link.clock },
           1 + String.length payload)
        in
        let frame =
          match lst.acked with
          | Some (base_seq, bform, bpay, bclk)
            when bform = form && lst.since_key < keyframe_interval -> (
            match Delta.encode ~base:bpay ~target:payload with
            | Some d when String.length d < 1 + String.length payload ->
              (Codec.Deliver_delta
                 { src; seq; base_seq; delta = d;
                   clock = Vclock.encode_wire ~base:bclk e.Link.clock },
               String.length d)
            | _ -> full
          )
          | _ -> full
        in
        (frame, seq, form, payload)
      in
      let deliver p slot =
        let link = links.(p).(slot) in
        let src = Link.src link in
        let step = Sem.steps sem in
        match Link.pop link ~plan ~step:(step - 1) with
        | None -> fail "net: deliver decision on an empty link %d.%d" p slot
        | Some e ->
          let finish bytes =
            Sem.on_delivered sem ~dst:p ~slot ~carried:e.Link.clock;
            incr delivered;
            bytes_delivered := !bytes_delivered + bytes;
            let latency_us =
              int_of_float ((Unix.gettimeofday () -. e.Link.sent_at) *. 1e6)
            in
            if !nlatencies = Array.length !latencies then begin
              let grown = Array.make (2 * !nlatencies) 0 in
              Array.blit !latencies 0 grown 0 !nlatencies;
              latencies := grown
            end;
            !latencies.(!nlatencies) <- latency_us;
            incr nlatencies;
            emit (Tele.Event.Mp_delivered { step; dst = p; src });
            emit
              (Tele.Event.Net_delivered
                 { step; src; dst = p; bytes; latency_us });
            Sem.stamp sem ~k:Tele.Event.clock_delivery p
          in
          let reject body =
            emit
              (Tele.Event.Net_dropped
                 { step; src; dst = p; reason = "malformed" });
            incr malformed;
            incr dropped;
            Peers.reject peers p (Codec.corrupt_body frame_rng body)
          in
          (match enc with
           | None ->
             (* version-1 delivery: one full marshalled snapshot *)
             let body =
               Codec.encode ~algo:tag
                 (Codec.Deliver
                    { src; state = e.Link.state;
                      clock = Vclock.encode_full e.Link.clock })
             in
             if e.Link.corrupt then reject body
             else begin
               finish (String.length e.Link.state);
               Peers.deliver peers p body ~slot ~step ~clock:e.Link.clock
             end
           | Some enc ->
             let lst = lstates.(p).(slot) in
             let (msg, wire), seq, form, payload = packed_frame enc lst ~src e in
             if e.Link.corrupt then
               (* the fault injector flips frame bytes; the node's strict
                  decoder must reject it before any delta bookkeeping, so
                  neither side's base moves *)
               reject (Codec.encode ~algo:tag msg)
             else begin
               lst.acked <- Some (seq, form, payload, e.Link.clock);
               (match msg with
                | Codec.Deliver_delta _ -> lst.since_key <- lst.since_key + 1
                | _ -> lst.since_key <- 0);
               finish wire;
               Peers.deliver peers p (Codec.encode ~algo:tag msg) ~slot ~step
                 ~clock:e.Link.clock
             end)
      in
      let corruption_burst i =
        let victims = List.init (max 1 (n / 2)) (fun k -> 2 * k mod n) in
        emit (Tele.Event.Fault { step = Sem.steps sem; victims });
        List.iter
          (fun p ->
            let d = Sem.corruption sem ~random:(A.random_init h) p in
            states.(p) <- d.Sem.core;
            Peers.drain peers p;
            (match
               Peers.exchange peers p
                 (Codec.Corrupt
                    { core = marshal d.Sem.core;
                      cache = Marshal.to_string d.Sem.cache [] })
             with
             | Codec.Corrupted -> ()
             | _ -> fail "net: node %d: expected corrupted" p);
            Array.iteri
              (fun slot forged ->
                match forged with
                | Some st ->
                  Link.preload links.(p).(slot) ~step:i ~state:(marshal st)
                    ~clock:(Vclock.copy (Sem.clock sem (H.neighbors h p).(slot)))
                | None -> ())
              d.Sem.forged;
            Sem.on_corrupted sem p)
          victims;
        burst_done := true;
        Observer.fault observer (obs ())
      in
      (* links the scheduler may deliver at the step it opened *)
      let pending dst slot =
        Link.eligible links.(dst).(slot) ~step:(Sem.steps sem - 1)
      in
      for i = 0 to cfg.steps - 1 do
        (match cfg.burst with Some b when b = i -> corruption_burst i | _ -> ());
        let inputs = Workload.inputs workload (Observer.before observer) in
        let req_in = Array.init n inputs.Model.request_in in
        let req_out = Array.init n inputs.Model.request_out in
        Sem.begin_step sem;
        (match Sem.decide sem ~pending with
         | Sem.Activate p -> activate p ~req_in ~req_out
         | Sem.Deliver (p, slot) -> deliver p slot);
        (* the observer judges and measures the assembled configuration
           exactly like the in-process engines, so net traces aggregate
           identically *)
        let after = obs () in
        Observer.step observer ~step:i ~round:0
          ~request_out:inputs.Model.request_out after;
        Workload.observe workload ~step:i after
      done;
      emit
        (Tele.Event.Run_end
           { outcome = "steps_exhausted"; steps = cfg.steps; rounds = 0 });
      let node_frames = ref 0 in
      let node_decode_errors = ref 0 in
      Array.iteri
        (fun p _ ->
          Peers.drain peers p;
          Peers.request peers p Codec.Bye)
        nodes;
      Array.iteri
        (fun p _ ->
          match Peers.reply peers p with
          | Codec.Bye_ack { frames; decode_errors } ->
            node_frames := !node_frames + frames;
            node_decode_errors := !node_decode_errors + decode_errors
          | _ -> fail "net: node %d: expected bye-ack" p)
        nodes;
      Spawn.shutdown nodes;
      let in_flight =
        Array.fold_left
          (fun acc row -> Array.fold_left (fun a l -> a + Link.size l) acc row)
          0 links
      in
      (* The latency log leaves as a list, three words a sample, that
         callers go through at once.  Started on an empty minor heap, the
         list and that first pass die young, wherever the run's last
         minor collection fell; otherwise a collection while they are
         live promotes them (0.4 MB more major heap after 16,000 steps on
         ring5). *)
      Gc.minor ();
      let spec = Observer.spec observer in
      let burst_step = if !burst_done then cfg.burst else None in
      {
        steps = cfg.steps;
        convenes = List.length (Spec.convened spec);
        terminations = Spec.terminations spec;
        violations = Spec.violations spec;
        sent = !sent;
        delivered = !delivered;
        dropped = !dropped;
        malformed = !malformed;
        resyncs = !resyncs;
        bytes_sent = !bytes_sent;
        bytes_delivered = !bytes_delivered;
        in_flight;
        max_staleness = Sem.max_staleness sem;
        latencies_us = List.init !nlatencies (Array.get !latencies);
        burst_step;
        recover_step = Observer.recovered observer;
        stabilized_in =
          (match (burst_step, Observer.recovered observer) with
           | Some b, Some r -> Some (r - b)
           | _ -> None);
        node_frames = !node_frames;
        node_decode_errors = !node_decode_errors;
        round_trips = Peers.round_trips peers;
        wall_s = Unix.gettimeofday () -. t0;
        final_obs = obs ();
      }
    with e ->
      cleanup_on_error ();
      raise e
end

let run ?telemetry ~mode ~workload (cfg : config) h =
  match Snapcc_mc.Systems.(lookup ~what:"net" wired) cfg.algo with
  | Error _ as e -> e
  | Ok { Snapcc_mc.Systems.sys = (module S); tag; _ } ->
    let module O = Make (S) in
    (* a node dying mid-write must surface as EPIPE on the socket, not kill
       the orchestrator; the caller's disposition comes back on return *)
    let caller = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe caller)
      (fun () -> Ok (O.go ?telemetry ~mode ~workload ~tag:(Option.get tag) cfg h))

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%d steps: %d meetings convened, %d terminated, %d violations@,\
     messages: %d sent, %d delivered, %d dropped (%d malformed, %d resyncs), \
     %d in flight@,\
     bytes: %d sent, %d delivered; max staleness %d steps@,\
     nodes: %d frames received, %d decode errors, %d round trips; wall %.3fs"
    r.steps r.convenes r.terminations
    (List.length r.violations)
    r.sent r.delivered r.dropped r.malformed r.resyncs r.in_flight r.bytes_sent
    r.bytes_delivered r.max_staleness r.node_frames r.node_decode_errors
    r.round_trips r.wall_s;
  (match r.burst_step with
   | None -> ()
   | Some b -> (
     Format.fprintf ppf "@,corruption burst at step %d: " b;
     match r.stabilized_in with
     | Some d -> Format.fprintf ppf "stabilized in %d steps" d
     | None -> Format.fprintf ppf "no convene before the horizon"));
  Format.fprintf ppf "@]"

module HIO = Snapcc_hypergraph.Hypergraph_io
module Model = Snapcc_runtime.Model
module Vclock = Snapcc_telemetry.Vclock

let fail fmt = Printf.ksprintf failwith fmt

(* The next frame from the orchestrator.  Replies stay queued while
   requests are buffered and leave together, just before the node would
   block: the orchestrator reads them only when it needs them. *)
let next c =
  if not (Wire.has_frame c) then Wire.flush c;
  Wire.read c

module Work (A : Snapcc_mc.System.S) = struct
  module V = Snapcc_mp.Mp_view.Make (A)
  module Enc = Snapcc_mc.Encode.Make (A)

  (* Decode a snapshot payload.  Form 1 carries the sender's state as an
     8-byte little-endian packed-domain id (the orchestrator interns the
     same domain in the same order); form 0 a marshalled state.  [None]
     means the payload is well-formed bytes but not applicable (unknown id
     / wrong width) — the caller requests a resync instead of guessing at
     a state. *)
  let payload_state enc ~src ~form payload : A.state option =
    match form with
    | 0 -> Some (Marshal.from_string payload 0 : A.state)
    | 1 ->
      if String.length payload <> 8 then None
      else begin
        let id = ref 0 in
        for k = 7 downto 0 do
          id := (!id lsl 8) lor Char.code payload.[k]
        done;
        if !id < 0 || !id >= Enc.domain_count enc src then None
        else Some (Enc.state enc src !id)
      end
    | _ -> None

  let run c ~id ~tag ~h ~core ~cache =
    let enc = Enc.create h in
    let core : A.state = Marshal.from_string core 0 in
    let cache : A.state array = Marshal.from_string cache 0 in
    let view = V.create h ~self:id ~core ~cache in
    (* the node's vector clock (own component = 1 for the initial
       configuration); the orchestrator maintains a tick-for-tick mirror
       and cross-checks it against the [Activated] echo *)
    let my_clock = Vclock.create (Snapcc_hypergraph.Hypergraph.n h) in
    Vclock.tick my_clock id;
    (* last accepted snapshot payload (and its clock) per cache slot, for
       delta decoding: the clock accepted with [pay_seq] is the base the
       sender encodes delta-form clock trailers against *)
    let deg = Array.length cache in
    let pay_seq = Array.make deg (-1) in
    let pay_form = Array.make deg 0 in
    let pay = Array.make deg "" in
    let pay_clock = Array.make deg [||] in
    let frames = ref 1 (* the Init frame *) in
    let decode_errors = ref 0 in
    let send msg = Wire.queue c (Codec.encode ~algo:tag msg) in
    (* A snapshot was refused since the last activation request.  The
       orchestrator reads a reply only when it needs one, so its
       retransmission may still be on its way behind the next [Activate]:
       that request is refused too, and repeated once the retransmission
       is queued, so the node never acts on a view missing a frame. *)
    let owed = ref false in
    let resync reason =
      owed := true;
      send (Codec.Resync { reason })
    in
    let accept ~slot ~seq ~form ~payload ~clock st =
      V.refresh view ~slot st;
      pay_seq.(slot) <- seq;
      pay_form.(slot) <- form;
      pay.(slot) <- payload;
      pay_clock.(slot) <- clock;
      Vclock.merge_into ~into:my_clock clock;
      Vclock.tick my_clock id;
      send Codec.Delivered
    in
    send Codec.Ready;
    let stop = ref false in
    while not !stop do
      match next c with
      | Error `Eof -> stop := true
      | Error `Truncated -> fail "node %d: connection closed inside a frame" id
      | Error (`Oversized len) -> fail "node %d: oversized frame (%d bytes)" id len
      | Ok body -> (
        incr frames;
        match Codec.decode ~expect:tag body with
        | Error e ->
          incr decode_errors;
          send (Codec.Decode_error { reason = Codec.error_to_string e })
        | Ok (_, Codec.Activate _) when !owed ->
          owed := false;
          send (Codec.Resync { reason = "a refused snapshot is owed" })
        | Ok (_, Codec.Activate { step = _; req_in; req_out }) ->
          let pred a q = q >= 0 && q < Array.length a && a.(q) in
          let inputs =
            { Model.request_in = pred req_in; request_out = pred req_out }
          in
          let label = V.activate view ~inputs in
          (* an activation that fired an action is an event; a no-op
             activation is a heartbeat and leaves the clock untouched *)
          if label <> None then Vclock.tick my_clock id;
          send
            (Codec.Activated
               { label;
                 core = Marshal.to_string (V.core view) [];
                 clock = Vclock.encode_full my_clock })
        | Ok (_, Codec.Deliver { src; state; clock }) -> (
          match Vclock.decode_full clock with
          | None -> fail "node %d: bad clock trailer from %d" id src
          | Some c ->
            let st : A.state = Marshal.from_string state 0 in
            V.refresh view ~slot:(V.slot view src) st;
            Vclock.merge_into ~into:my_clock c;
            Vclock.tick my_clock id;
            send Codec.Delivered)
        | Ok (_, Codec.Deliver_full { src; seq; form; payload; clock }) -> (
          let slot = V.slot view src in
          match Vclock.decode_wire clock with
          | None -> resync "bad clock trailer"
          | Some c -> (
            match payload_state enc ~src ~form payload with
            | Some st -> accept ~slot ~seq ~form ~payload ~clock:c st
            | None -> resync "unknown packed id"))
        | Ok (_, Codec.Deliver_delta { src; seq; base_seq; delta; clock }) -> (
          let slot = V.slot view src in
          if pay_seq.(slot) <> base_seq then
            resync "base out of sync"
          else
            match Vclock.decode_wire ~base:pay_clock.(slot) clock with
            | None -> resync "bad clock trailer"
            | Some c -> (
              match Delta.apply ~base:pay.(slot) delta with
              | None -> resync "delta does not apply"
              | Some target -> (
                let form = pay_form.(slot) in
                match payload_state enc ~src ~form target with
                | Some st -> accept ~slot ~seq ~form ~payload:target ~clock:c st
                | None -> resync "unknown packed id")))
        | Ok (_, Codec.Corrupt { core; cache }) ->
          let core : A.state = Marshal.from_string core 0 in
          let cache : A.state array = Marshal.from_string cache 0 in
          V.set_core view core;
          Array.iteri (fun slot st -> V.refresh view ~slot st) cache;
          (* a corruption fault is an event of the victim *)
          Vclock.tick my_clock id;
          send Codec.Corrupted
        | Ok (_, Codec.Bye) ->
          send
            (Codec.Bye_ack
               { frames = !frames; decode_errors = !decode_errors });
          Wire.flush c;
          stop := true
        | Ok
            ( _,
              ( Codec.Hello _ | Codec.Init _ | Codec.Ready | Codec.Activated _
              | Codec.Delivered | Codec.Corrupted | Codec.Decode_error _
              | Codec.Resync _ | Codec.Bye_ack _ ) ) ->
          incr decode_errors;
          send (Codec.Decode_error { reason = "unexpected message kind" }))
    done
end

let serve ~id fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let c = Wire.conn fd in
  Wire.queue c (Codec.encode ~algo:0 (Codec.Hello { id }));
  match next c with
  | Error `Eof -> ()
  | Error `Truncated -> fail "node %d: connection closed inside the init frame" id
  | Error (`Oversized len) -> fail "node %d: oversized init frame (%d bytes)" id len
  | Ok body -> (
    match Codec.decode body with
    | Error e -> fail "node %d: bad init frame: %s" id (Codec.error_to_string e)
    | Ok (tag, Codec.Init { seed = _; topo; core; cache }) -> (
      match Snapcc_mc.Systems.of_tag tag with
      | None -> fail "node %d: unknown algorithm tag %d" id tag
      | Some { Snapcc_mc.Systems.sys = (module S); _ } -> (
        match HIO.parse topo with
        | Error e -> fail "node %d: bad topology: %s" id e
        | Ok h ->
          let module W = Work (S) in
          W.run c ~id ~tag ~h ~core ~cache))
    | Ok (_, _) -> fail "node %d: expected init frame" id)

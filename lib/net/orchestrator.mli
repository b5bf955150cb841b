(** The orchestrator: fault-injecting link layer, node protocol and live
    monitoring observer of the networked runtime.

    The scheduler's decisions, every random draw (initial configuration,
    corruption burst) and the vector clocks with their [clock] events come
    from {!Snapcc_mp.Mp_semantics}, the same code the in-process emulation
    runs; the orchestrator adds only the transport.  Each step either
    activates one node (which executes one guarded action against its
    cached view and re-broadcasts its state through the link layer) or
    delivers one in-flight snapshot.  The orchestrator checks each node's
    echoed clock against the semantics' copy and fails on a mismatch.
    Deliveries do not wait for their reply: the orchestrator predicts it
    and checks it later ({!Peers}), so node processes work while it
    schedules.  Under a fault-free plan the links coalesce exactly like
    [Mp_engine]'s single-slot channels, so a zero-fault networked run
    replays the [ccsim mp] run of the same seed event for event —
    [lib/mp] is the executable reference model of this runtime.

    The observer half assembles the true configuration from the nodes'
    [Activated] reports and feeds it to the same
    {!Snapcc_analysis.Observer} fold as the in-process engines (Spec
    monitors, metrics, [token_handoff]/[recover] and the [convene]/
    [terminate]/waiting-span events), next to the [fault], [mp_*],
    [clock] and [net_*] link events, so [ccsim stats] and [ccsim trace]
    consume a networked trace unchanged.  Every event except
    [net_delivered] (wall-clock latency) is a pure function of the
    seed. *)

type config = {
  algo : string;
      (** a name with a wire tag ({!Snapcc_mc.Systems.wired}: cc1 | cc2 |
          cc3) *)
  seed : int;
  init : [ `Canonical | `Random ];
  deliver_bias : float;
  steps : int;
  plan : Faults.plan;
  burst : int option;
      (** soak mode: corrupt half the nodes (cores, caches and in-flight
          messages, drawn like [Mp_engine.corrupt]'s) at this step *)
  engine : [ `Packed | `Closure ];
      (** Wire format for snapshot deliveries.  [`Closure] sends the
          version-1 full-marshal [Deliver] frames.  [`Packed] encodes a
          snapshot as its packed-domain id and, when the receiver holds
          an acknowledged base on that link, as an XOR {!Delta} against
          it (empty for heartbeats), with a full frame forced every
          [keyframe] deliveries; a node that cannot apply a frame answers
          [Resync] and is re-sent a full snapshot ({!result.resyncs}).
          The choice changes only bytes on the wire: scheduler decisions,
          states and observable events are identical between the two
          engines run seed-for-seed (the parity suite asserts it). *)
}

type result = {
  steps : int;
  convenes : int;
  terminations : int;
  violations : Snapcc_analysis.Spec.violation list;
  sent : int;  (** snapshots handed to the link layer *)
  delivered : int;
  dropped : int;  (** total losses, all reasons *)
  malformed : int;  (** corrupted frames rejected by the strict decoder *)
  resyncs : int;
      (** packed engine: frames the node answered with [Resync]
          (out-of-sync delta base, unknown id) — each was retried as a
          full snapshot, counted as a transient fault, never applied
          wrongly *)
  bytes_sent : int;
      (** marshalled snapshot bytes handed to the link layer (independent
          of the wire engine) *)
  bytes_delivered : int;
      (** snapshot payload bytes that actually crossed the wire on
          successful deliveries — under [`Packed] this is the
          delta/packed-id cost, the quantity the bench's
          [bytes_per_snapshot] tracks *)
  in_flight : int;  (** snapshots still queued at the end *)
  max_staleness : int;
  latencies_us : int list;  (** delivery latencies, chronological *)
  burst_step : int option;
  recover_step : int option;  (** first convene after the burst *)
  stabilized_in : int option;  (** recover_step - burst_step *)
  node_frames : int;  (** frames received across nodes (from [Bye_ack]) *)
  node_decode_errors : int;
  round_trips : int;
      (** times the orchestrator waited for a node's reply
          ({!Peers.round_trips}) *)
  wall_s : float;
  final_obs : Snapcc_runtime.Obs.t array;
}

(** The orchestrator's side of its node connections.  A frame whose
    reply the link bookkeeping predicts — [Delivered] for a clean
    delivery, [Decode_error] for a corrupted frame — is queued with that
    prediction ({!deliver}, {!reject}) and not waited for.  The node answers in
    request order, so the deferred replies are read and checked when the
    answer to a later request is needed ({!request}, {!reply}: [Init],
    [Activate], [Corrupt], [Bye]), or when the node holds {!window} of
    them ({!drain}): every frame a node received before an activation has
    been checked when the activation's answer is read, as if every reply
    had been awaited.  Every node's write queue is flushed before the
    orchestrator blocks on one, so node processes run while it waits. *)
module Peers : sig
  type t

  val window : int
  (** Deferred replies per node (256); reaching it drains the node. *)

  val create :
    tag:int ->
    resend:
      (int -> slot:int -> step:int -> clock:Snapcc_telemetry.Vclock.t ->
       string) ->
    Wire.conn array ->
    t
  (** Over {!Spawn.launch}'s connections; [tag] is the algorithm's wire
      tag.  When node [p] answers a {!deliver}ed frame with [Resync],
      [resend p ~slot ~step ~clock] returns the full frame that replaces
      it, queued at once; its own reply must be [Delivered]. *)

  val deliver :
    t -> int -> string -> slot:int -> step:int ->
    clock:Snapcc_telemetry.Vclock.t -> unit
  (** Queue a snapshot frame from the node's neighbour [slot], delivered
      at [step] with [clock].  Its reply must be [Delivered], or a
      [Resync] that [resend] recovers. *)

  val reject : t -> int -> string -> unit
  (** Queue a corrupted frame: its reply must be [Decode_error]. *)

  val drain : t -> int -> unit
  (** Read and check every deferred reply of the node, recovering
      [Resync]s; any other mismatch raises [Failure]. *)

  val request : t -> int -> Codec.msg -> unit
  (** Queue a message whose answer is needed, behind the node's deferred
      frames. *)

  val reply : t -> int -> Codec.msg
  (** The answer to the node's last {!request}, after checking the
      deferred replies queued before it.  When they are not all buffered,
      flush every node's queue and block for them (one round trip). *)

  val exchange : t -> int -> Codec.msg -> Codec.msg
  (** {!request} then {!reply}.  A node that has answered [Resync] since
      its last [Activate] refuses the next one with [Resync], because the
      retransmission may still be behind it: the request is then queued
      again, behind the retransmissions, and a second refusal raises
      [Failure]. *)

  val pending : t -> int -> int
  (** Deferred replies not yet read for the node. *)

  val round_trips : t -> int
  (** Waits so far: {!reply} and {!drain} calls that had to read a
      node's socket because the replies they check were not all
      buffered. *)
end

val run :
  ?telemetry:Snapcc_telemetry.Hub.t ->
  mode:Spawn.mode ->
  workload:Snapcc_workload.Workload.t ->
  config ->
  Snapcc_hypergraph.Hypergraph.t ->
  (result, string) Stdlib.result
(** [Error] for a name the catalog does not serve over the wire;
    protocol failures (a node dying mid-run) raise [Failure] after the
    remaining nodes are killed and reaped.  [SIGPIPE] is ignored while the
    run lasts (a dead node's socket fails the write instead) and restored
    to the caller's disposition when it returns or raises. *)

val pp_result : Format.formatter -> result -> unit

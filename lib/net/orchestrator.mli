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
    Under a fault-free plan the links coalesce exactly like
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
  wall_s : float;
  final_obs : Snapcc_runtime.Obs.t array;
}

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

(** Message-passing emulation of the locally-shared-memory model — the
    substrate for the paper's first future-work item (§7: "design a
    fault-tolerant committee coordination algorithm in the message-passing
    model").

    The classical state-dissemination transformation: each process keeps its
    algorithm state plus a {e cache} of the last state received from each
    neighbor; guards and statements are evaluated against that possibly
    stale view.  Every activation re-broadcasts the process' current state
    to all neighbors (heartbeat — required for recovery, since caches and
    channels can be corrupted by transient faults).  Links carry full-state
    snapshots and are {e coalescing}: a link holds at most the latest
    undelivered snapshot, so channel capacity is bounded by construction
    (the standard assumption for stabilization in message passing).

    An adversarial-but-fair scheduler interleaves two kinds of events:
    process activations and message deliveries.  The {e true}
    configuration (the cores) is what the monitors observe; staleness lives
    only in caches.

    The scheduler, every random draw and the vector clocks are
    {!Mp_semantics}'s, shared with the networked runtime; this module adds
    the in-memory transport: typed views and coalescing slots.  An
    activation evaluates the guard closures on the process's view
    ({!Mp_view.Make.activate}). *)

module Make (A : Snapcc_runtime.Model.ALGO) : sig
  type t

  type event =
    | Activated of int * string option
        (** process, label of the executed action ([None]: nothing enabled
            on its view; it still re-broadcast) *)
    | Delivered of int * int  (** receiver, sender *)

  val create :
    ?seed:int ->
    ?init:[ `Canonical | `Random ] ->
    ?deliver_bias:float ->
    ?telemetry:Snapcc_telemetry.Hub.t ->
    ?vclock:bool ->
    ?packed:A.state Snapcc_runtime.Model.packed ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** [deliver_bias] (default 0.5) is the probability that a step delivers a
      pending message rather than activating a process; staleness grows as
      it shrinks.  [`Random] also randomizes caches and channels.
      [telemetry] receives [mp_activated] per activation, [mp_delivered]
      per delivery and [fault] on {!corrupt}, stamped with the scheduler
      step.

      [vclock] (default [true], effective only with [telemetry]) keeps the
      per-process vector clocks of {!Mp_semantics} and emits one [clock]
      event per initial configuration, acting activation, accepted
      delivery and corruption, carrying the clock and the process' packed
      local observation.  Stamping is purely observational: it never
      touches the rng, so a stamped run is event-for-event identical to an
      unstamped one, and an unstamped run does no clock work.

      [packed] is accepted and ignored: kept for bench/perf; ROADMAP
      item 1 removes it. *)

  val hypergraph : t -> Snapcc_hypergraph.Hypergraph.t

  val obs : t -> Snapcc_runtime.Obs.t array
  (** Observation of the true (core) configuration.

      Identity contract: the result is the physically same array until an
      activation that executed an action, or a {!corrupt}, changes a core;
      deliveries and no-op activations keep it.  After a change the next
      call re-projects the whole configuration (an [observe] may read
      non-neighbours), so a fresh array means "possibly changed" and the
      same array means "unchanged" — [Spec.on_step] and
      [Metrics.on_step] skip their per-edge passes on it.
      The [clock] stamps read this same projection.  Callers must never
      mutate the array. *)

  val step : t -> inputs:Snapcc_runtime.Model.inputs -> event
  (** One scheduler event.  Fairness: starving processes and old pending
      messages are force-selected, so every process is activated and every
      sent snapshot delivered infinitely often. *)

  val steps_taken : t -> int
  val messages_delivered : t -> int
  val messages_sent : t -> int
  val in_flight : t -> int

  val corrupt : t -> victims:int list -> unit
  (** Transient fault: randomize the victims' cores, caches, and every
      channel adjacent to them.  Raises [Invalid_argument] if a victim is
      not a process, before emitting, drawing or writing anything. *)

  val max_staleness : t -> int
  (** Diagnostic: the largest number of steps any cache entry has gone
      without refresh, over the whole run. *)

  val profile : t -> (string * int) list
  (** Cheap monotonic hot-path counters: [mp_activations],
      [mp_deliveries], and [mp_pk_hits], always 0 (kept for bench/perf;
      ROADMAP item 1 removes it). *)
end

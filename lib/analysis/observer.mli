(** One observed execution: the before/after fold every run loop feeds.

    The paper's specification (§2.3–§2.5) is judged per transition by
    {!Spec} and measured by {!Metrics}.  An engine — the shared-memory
    driver, the message-passing emulation, the networked orchestrator, the
    causal and counterexample replays — only produces transitions; this
    fold owns everything around them:

    - the current configuration the next transition starts from (what the
      workload reads its inputs from);
    - the fault boundary: meetings present in a corrupted configuration
      become exempt from the discussion checks, and the next transition
      starts from the corrupted configuration;
    - the recover rule: the first convene after each fault is the
      recovery (§2.5 snap-stabilization: service resumes immediately);
    - the derived telemetry, emitted per transition in this order:
      [token_handoff] (one per process that gained the token), [recover],
      the {!Spec} [verdict]s, then the {!Metrics} [convene]/[terminate]/
      [wait_open]/[wait_close] events.  Engine events of the step ([step],
      [action], [mp_*], [net_*], [clock]) precede all of them.

    Without a hub the fold adds no per-step pass of its own: the token
    scan runs only with a hub, and the recovery scan only while a fault
    awaits its recovery. *)

type t

val create :
  ?telemetry:Snapcc_telemetry.Hub.t ->
  Snapcc_hypergraph.Hypergraph.t ->
  initial:Snapcc_runtime.Obs.t array ->
  t
(** With [telemetry], the monitors and the fold emit their events on the
    hub.  [initial] must not be mutated afterwards (nor any configuration
    later passed to {!step} or {!fault}). *)

val before : t -> Snapcc_runtime.Obs.t array
(** The configuration the next transition starts from: [initial], the last
    configuration passed to {!step}, or the corrupted one of the last
    {!fault}. *)

val step :
  t ->
  step:int ->
  round:int ->
  request_out:(int -> bool) ->
  Snapcc_runtime.Obs.t array ->
  unit
(** [step t ~step ~round ~request_out after] folds the transition from
    {!before} to [after] ([request_out] are the inputs it ran under), then
    makes [after] the new {!before}. *)

val fault : t -> Snapcc_runtime.Obs.t array -> unit
(** A transient fault left the configuration [corrupted]: its meetings
    become exempt (see {!Spec.on_fault}), it becomes {!before}, and the
    next convene is reported as the recovery.  The [fault] event itself is
    the engine's to emit, since only the engine knows the victims and what
    else its corruption emits. *)

val spec : t -> Spec.t
(** The specification monitor: verdicts, convene ledger, terminations. *)

val recovered : t -> int option
(** The step of the run's first recovery (the first convene after the
    first fault), if any. *)

val finish : t -> step:int -> round:int -> Metrics.summary
(** Close the metrics books (see {!Metrics.finish}). *)

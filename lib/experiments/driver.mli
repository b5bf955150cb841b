(** One-stop runners: engine + workload + the observed-execution fold.

    Every experiment and most integration tests funnel through
    [Make(A).run] (shared memory) or [Mp(A).run] (the message-passing
    emulation); both feed each transition to one
    {!Snapcc_analysis.Observer}, so every simulated step is judged against
    the paper's specification and measured by the same code. *)

type result = {
  algo : string;
  daemon : string;
  workload : string;
  outcome : [ `Terminal | `Stopped | `Steps_exhausted ];
      (** [`Terminal]: the configuration froze and the workload stopped
          producing inputs (see [stutter_limit]); [`Stopped]: [stop_when]
          fired; [`Steps_exhausted]: the horizon was reached. *)
  steps : int;  (** real steps taken (stutters excluded) *)
  rounds : int;
  final_obs : Snapcc_runtime.Obs.t array;
  violations : Snapcc_analysis.Spec.violation list;
  convened : (int * int) list;  (** [(step, eid)] convene ledger *)
  convene_count : int array;  (** per committee *)
  participations : int array;  (** per professor *)
  summary : Snapcc_analysis.Metrics.summary;
  trace : Snapcc_runtime.Trace.t option;  (** when [record_trace] *)
  profile : (string * int) list;
      (** the engine's hot-path counters at the end of the run
          ([Snapcc_runtime.Engine.Make.profile], or
          [Snapcc_mp.Mp_engine.Make.profile] for {!Mp.run}) *)
}

val ok : result -> bool
(** No specification violation was recorded. *)

val pp_result : Format.formatter -> result -> unit

module Make (A : Snapcc_runtime.Model.ALGO) : sig
  module E : module type of Snapcc_runtime.Engine.Make (A)

  val run_with_states :
    ?seed:int ->
    ?init:[ `Canonical | `Random ] ->
    ?init_states:A.state array ->
    ?check_locality:bool ->
    ?packed:A.state Snapcc_runtime.Model.packed ->
    ?faults:(step:int -> int list) ->
    ?stop_when:(Snapcc_runtime.Obs.t array -> bool) ->
    ?record_trace:bool ->
    ?stutter_limit:int ->
    ?telemetry:Snapcc_telemetry.Hub.t ->
    daemon:Snapcc_runtime.Daemon.t ->
    workload:Snapcc_workload.Workload.t ->
    steps:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    result * A.state array
  (** Like {!run}, additionally returning the final typed configuration
      (used to carry states across dynamic-topology changes).

      [init_states] overrides [init] with an explicit configuration.
      [packed] serves the engine's guard scans from the hooks' memo (see
      [Snapcc_runtime.Engine.Make.create]); results are trace-identical.
      [faults ~step] names the processes to corrupt before the given step
      (the monitor is notified, §2.5 exemptions apply).  When the engine
      reports a terminal configuration the driver {e stutters}: inputs may
      evolve (discussion timers, request coins), so the run only ends after
      [stutter_limit] (default 1000) consecutive input-frozen stutters.

      [telemetry] instruments the run end to end: a [run_start] header,
      one [step] event per engine step (daemon selection, neutralizations,
      meeting set), one [action] event per firing, [fault] per injected
      fault, the observer's events ([token_handoff], [recover], [verdict],
      [convene]/[terminate]/[wait_open]/[wait_close]) and a [run_end]
      trailer.  All events are logical (step/round-stamped), so a JSONL
      trace is a deterministic function of [seed]. *)

  val run :
    ?seed:int ->
    ?init:[ `Canonical | `Random ] ->
    ?init_states:A.state array ->
    ?check_locality:bool ->
    ?packed:A.state Snapcc_runtime.Model.packed ->
    ?faults:(step:int -> int list) ->
    ?stop_when:(Snapcc_runtime.Obs.t array -> bool) ->
    ?record_trace:bool ->
    ?stutter_limit:int ->
    ?telemetry:Snapcc_telemetry.Hub.t ->
    daemon:Snapcc_runtime.Daemon.t ->
    workload:Snapcc_workload.Workload.t ->
    steps:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    result
end

module Mp (A : Snapcc_runtime.Model.ALGO) : sig
  module E : module type of Snapcc_mp.Mp_engine.Make (A)

  val run :
    ?seed:int ->
    ?init:[ `Canonical | `Random ] ->
    ?deliver_bias:float ->
    ?vclock:bool ->
    ?faults:(step:int -> int list) ->
    ?telemetry:Snapcc_telemetry.Hub.t ->
    workload:Snapcc_workload.Workload.t ->
    steps:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    result * E.t
  (** [steps] scheduler events of the message-passing emulation
      ({!Snapcc_mp.Mp_engine}: [seed], [init], [deliver_bias] and
      [vclock] are its options), observed on the true (core)
      configuration.  [faults ~step] names the processes to corrupt (cores,
      caches, adjacent channels) before the given step.  The result's
      daemon is ["mp-scheduler"], its rounds 0 and its outcome
      [`Steps_exhausted]; the engine is returned for its message counters.

      [telemetry] receives a [run_start] header, the engine's [mp_*],
      [clock] and [fault] events, the observer's events and a [run_end]
      trailer — the trace [ccsim trace] rebuilds from the clocks. *)
end

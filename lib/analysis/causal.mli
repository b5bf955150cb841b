(** Offline causal analysis of JSONL traces: happens-before reconstruction
    from vector-clock [clock] events alone.

    The stamped engines ([Mp_engine], the networked orchestrator and its
    node processes) emit one {!Snapcc_telemetry.Event.Clock} event per
    node-originated event of the message-passing model — initial
    configuration, acting activation, accepted delivery, corruption —
    carrying the process's vector clock and its packed local observation
    {e after} the event.  This module rebuilds the execution from those
    stamps without consulting the scheduler's order:

    - the happens-before DAG (clock comparison decides causality exactly
      under the stamping discipline);
    - a canonical causal linearization (Kahn's algorithm over the clock
      frontier, deterministic tie-breaks), whose prefixes are the
      consistent cuts the replay walks through;
    - cut-consistent re-evaluation of the {!Spec} monitor and of the
      meeting ledger over the reconstructed configurations;
    - the causal degree of fair concurrency: the width (maximum antichain)
      of the meeting-span partial order, versus the schedule-derived
      maximum of simultaneous meetings;
    - the critical path from a corruption burst to the recovering convene
      — the causal chain behind the time-to-stabilize number.

    Validated against the lockstep runtime as an oracle ({!parity}): on
    zero-fault lockstep runs the replay reproduces the online observer's
    Spec verdicts, convene ledger and stabilization step exactly.

    Caveat: the trace does not record the workload's [RequestOut]
    predicate, so the replay evaluates the voluntary-discussion rule under
    [request_out = fun _ -> true] — it can miss (never invent)
    voluntary-discussion violations recorded online. *)

type node = {
  p : int;
  k : int;  (** event class ({!Snapcc_telemetry.Event.clock_init}…) *)
  step : int;  (** scheduler step recorded on the event *)
  iter : int;
      (** derived loop iteration: [step - 1] for activation/delivery
          events (the step counter is bumped at step begin), [step] for
          corruption events (injected before the step begins) *)
  clock : Snapcc_telemetry.Vclock.t;
  obs : Snapcc_runtime.Obs.t;  (** [p]'s observation after the event *)
}

type span = {
  eid : int;
  convene_iter : int;
  convene_clock : Snapcc_telemetry.Vclock.t;
  close_iter : int option;  (** [None]: still meeting at end of trace *)
  close_clock : Snapcc_telemetry.Vclock.t option;
}

type t

val analyze : Snapcc_telemetry.Event.t list -> (t, string) result
(** Requires a [run_start] with a non-empty [topo] (traces predating the
    causal layer are rejected) and a causally consistent set of [clock]
    events; any validation failure (missing init stamps, non-consecutive
    own components, a stuck linearization) is a descriptive [Error]. *)

val hypergraph : t -> Snapcc_hypergraph.Hypergraph.t
val processes : t -> int
val events : t -> node array
(** The causal linearization (initial-configuration stamps excluded); its
    [i]-th prefix is the [i]-th consistent cut of {!iter_cuts}. *)

val horizon : t -> int
(** Scheduler iterations covered ([run_end] steps when present). *)

val violations : t -> Spec.violation list
(** The {!Spec} verdicts of the cut-consistent replay. *)

val convened : t -> (int * int) list
(** [(iter, eid)] convene ledger of the replay, chronological. *)

val fault_iters : t -> int list
val recover_iter : t -> int option
val stabilized_in : t -> int option
(** [recover - first fault], when both exist. *)

val dfc_schedule : t -> int
(** Maximum number of simultaneous meetings along the replay — the
    schedule-derived degree of fair concurrency. *)

val mean_concurrency : t -> float

val dfc_causal : t -> int
(** Width (maximum antichain) of the meeting-span partial order
    [A ≺ B iff A closed and close_clock(A) ≤ convene_clock(B)]: meetings
    no causal chain separates count as concurrent even when the schedule
    happened to serialize them, so [dfc_causal >= dfc_schedule]. *)

val critical_path : t -> node list
(** The longest happens-before chain from the corruption burst to the
    recovering convene (empty without a burst-recover pair): the causal
    skeleton of the stabilization time. *)

val cut_consistent : t -> int array -> bool
(** [cut_consistent t f] — is the cut taking, for each process [p], its
    first [f.(p)] events (initial stamp included, so [f.(p)] ranges over
    [0..]) downward-closed under happens-before? *)

val iter_cuts :
  t -> (idx:int -> frontier:int array -> obs:Snapcc_runtime.Obs.t array -> unit) -> unit
(** Enumerate the canonical consistent cuts along the linearization (cut
    [0] = initial stamps only), with the per-process event counts and the
    reconstructed configuration of each. *)

type parity = {
  verdicts_ok : bool;  (** replay (rule, detail) set = observer's *)
  convenes_ok : bool;
  convenes_checked : bool;
      (** [false] when the trace carried no observer [convene] events to
          compare against (the check is then vacuous) *)
  stabilization_ok : bool;  (** burst/recover iterations match *)
  mismatches : string list;
}

val parity : t -> Snapcc_telemetry.Event.t list -> parity
(** Compare the vector-clock replay against the online observer's events
    of the same trace — the lockstep-oracle check. *)

val parity_ok : parity -> bool

val to_json : t -> Snapcc_telemetry.Json.t
val parity_to_json : parity -> Snapcc_telemetry.Json.t
val pp : Format.formatter -> t -> unit
val pp_parity : Format.formatter -> parity -> unit

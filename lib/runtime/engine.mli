(** Simulation engine: executes an algorithm under a daemon, maintaining
    round accounting (§2.2), weak-fairness counters and fault injection.

    The engine is deliberately step-wise: callers (workloads, monitors,
    experiments) supply the input predicates for each step and observe the
    resulting {!Model.step_report}, so every measurement in the repository
    is made against the exact semantics of the model.

    Guard evaluation is incremental.  The engine keeps, per process, the
    result of its last priority scan and the scan's {e footprint}: the
    processes whose state it read through [ctx.read] and whose input
    predicates it consulted, as recorded during the scan (not the
    hypergraph neighbourhood, so non-local readers stay exact).  A step
    rescans only the entries whose footprint contains a process that
    executed, or whose input mode ({!Model.mode_of}) changed since the
    entry was computed; {!corrupt} and {!set_states} rescan everything.
    This is sound for any [ALGO] whose guards are deterministic functions
    of what they read, and for input predicates that do not change during
    a step (they are queried for every process at its start).  On the
    packed path (see {!create}) a rescan may be answered by the memo, with
    the closed neighbourhood as its footprint. *)

module Make (A : Model.ALGO) : sig
  type t

  val create :
    ?seed:int ->
    ?check_locality:bool ->
    ?init:[ `Canonical | `Random | `States of A.state array ] ->
    ?packed:A.state Model.packed ->
    daemon:Daemon.t ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** [packed] (see {!Model.packed}, produced by [Snapcc_mc.Packed])
      enables the memo fast path.  The engine mirrors the configuration as
      canonical state ids ([pk_intern]) and serves a rescan of [p] from
      the hooks' {!Memo}, keyed on the ids and input modes of p's closed
      neighbourhood N[p]; a served answer's footprint is N[p].  A miss
      runs the closure scan and stores its answer only if every recorded
      read lies in N[p].  Guards are deterministic in what they read, and
      [System.S.canon] promises that no guard tells canon-equal states
      apart, so by induction over the scan's reads a stored answer is the
      one the closure scan gives on every configuration with the same key.
      The memo belongs to the hooks value, so every engine created from
      it — every smc trial of one worker — shares it.

      Statements still execute as closures against the true states, so a
      packed run is {e trace-identical} to the closure run of the same
      seed — same enabled sets, same daemon draws, same reports (asserted
      by the parity test suite).  Scans that read beyond N[p] or whose ids
      do not fit the key keep the closure scan, and the whole fast path
      degrades to closures if the interner ever overflows (never silently
      wrong).

      [check_locality] (default [false]) makes every state read performed by
      a guard or statement of process [p] assert (raising [Failure]) that
      the target is [p] or a neighbor of [p] — a dynamic check that the
      algorithm respects the locally-shared-variable model.  It only sees
      the reads of the one execution being run; the static pass
      ([Snapcc_statics.Analyze], surfaced as [ccsim lint]) evaluates every
      action against enumerated and random configurations and checks the
      same locality condition on the recorded read-sets, along with
      write-ownership and determinism.  Use [check_locality] as a cheap
      guard rail inside long simulations, and the static pass as the CI
      gate.  [`Random] draws each process state with [A.random_init]
      (arbitrary initial configuration of §2.5). *)

  val engine_kind : t -> [ `Packed | `Closure ]
  (** The path currently in effect — [`Closure] when no [packed] hooks
      were given or after an interner overflow dropped the fast path. *)

  val hypergraph : t -> Snapcc_hypergraph.Hypergraph.t
  val states : t -> A.state array
  (** A copy of the current configuration. *)

  val state : t -> int -> A.state
  val set_states : t -> A.state array -> unit
  val obs : t -> Obs.t array
  val steps_taken : t -> int
  val rounds : t -> int
  (** Number of completed rounds. *)

  val enabled : t -> inputs:Model.inputs -> int list
  (** A full closure scan, independent of the step's cache: the oracle
      the cache is tested against. *)

  val is_terminal : t -> inputs:Model.inputs -> bool

  val enabled_action : t -> inputs:Model.inputs -> int -> string option
  (** Label of the highest-priority enabled action of a process, if any. *)

  val step : t -> inputs:Model.inputs -> Model.step_report
  (** One step: daemon selection, atomic execution of the highest-priority
      enabled action of each selected process against the pre-step
      configuration, then round/fairness bookkeeping.  In a terminal
      configuration the report has [terminal = true] and nothing changes. *)

  val run :
    t -> steps:int -> inputs_at:(t -> Model.inputs) ->
    ?on_step:(t -> Model.step_report -> unit) ->
    ?stop_when:(t -> bool) ->
    unit -> [ `Terminal | `Stopped | `Steps_exhausted ]
  (** Convenience loop: at most [steps] steps, recomputing inputs before
      each step; stops early on a terminal configuration or when
      [stop_when] holds (checked after each step). *)

  val corrupt : t -> ?rng:Random.State.t -> victims:int list -> unit -> unit
  (** Transient-fault injection: replaces the state of each victim with an
      arbitrary one ([A.random_init]), resetting round accounting the way an
      adversary would — the engine's round counter keeps increasing, but
      fairness counters restart.  Raises [Invalid_argument] if a victim is
      not a process, before drawing or writing anything. *)

  val rng : t -> Random.State.t

  val profile : t -> (string * int) list
  (** Cheap monotonic hot-path counters, surfaced in the bench artifacts:
      [engine_scan_hits] / [engine_scan_fallbacks] (guard scans performed
      on the packed path, served by the memo vs run as closures),
      [engine_scan_reused] (per-process entries served from the
      incremental cache instead of being rescanned, on either path),
      [engine_applies] (statements executed), [engine_selects]
      (non-terminal daemon selections).  No wall-clock reads — safe on
      the hot path. *)
end

(** One Monte-Carlo trajectory of the statistical tier.

    A trial draws its initial configuration uniformly from the full
    state-domain product ([`Random] init — snap-stabilization quantifies
    over {e every} initial configuration, so sampling them is the honest
    relaxation), runs the standard driver stack for a bounded budget and
    condenses the result to a {!record}.

    A record is a pure function of [(seed, trial)]: the per-trial seed
    comes from {!derive}, and the daemon, workload and engine all draw
    from it.  This is what lets {!Pool} partition trial indices over
    workers arbitrarily and merge byte-identical results. *)

type record = {
  trial : int;  (** 0-based trial index *)
  seed : int;  (** derived per-trial seed *)
  stabilized : int option;
      (** steps until the first committee convened — first service after
          the corrupted start, i.e. the stabilization time of §2.5 —
          or [None] if no committee convened within the budget *)
  convenes : int;
  violations : int;  (** Spec-monitor verdicts (expected 0) *)
  deadlocked : bool;
      (** the run froze (terminal configuration) with the workload still
          ticking — meaningful under request-driven workloads; the
          [infinite] workload freezes by design once every meeting is
          served *)
  steps : int;  (** real steps taken (stutters excluded) *)
  waits : int list;  (** completed waiting-span durations, in steps *)
}

val derive : seed:int -> int -> int
(** [derive ~seed trial] mixes the base seed and trial index into a
    non-negative per-trial seed (splitmix-style avalanche). *)

val daemon_names : string list
val workload_names : string list
(** The accepted [--daemon] / [--workload] keys. *)

val daemon_of : string -> Snapcc_runtime.Daemon.t
(** Fresh (unshared) daemon instance; raises [Invalid_argument] on
    unknown names — validate via {!daemon_names} before forking. *)

val workload_of :
  string ->
  disc:int ->
  seed:int ->
  Snapcc_hypergraph.Hypergraph.t ->
  Snapcc_workload.Workload.t
(** Per-trial workload, drawing any arrival randomness from [seed].
    Raises [Invalid_argument] on unknown names. *)

val stutter_limit : int
(** Consecutive input-frozen stutters before a trial is called terminal
    (shorter than the driver default — unstabilizable corrupted starts
    must be cheap). *)

module Of (A : Snapcc_runtime.Model.ALGO) : sig
  val run :
    ?packed:A.state Snapcc_runtime.Model.packed ->
    seed:int ->
    budget:int ->
    daemon:string ->
    workload:string ->
    disc:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    trial:int ->
    record
  (** Execute trial [trial]: derive the seed, draw the corrupted start,
      run for at most [budget] steps, score.  [packed] routes guard
      scans through the hooks' scan memo, which the trials given the same
      hooks share (trace-identical, so records are engine-independent). *)
end

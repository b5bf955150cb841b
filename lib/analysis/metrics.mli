(** Quantitative trace metrics: concurrency degree, waiting times,
    throughput, starvation — the measurements behind the §3.3/§5.3
    experiments. *)

type summary = {
  steps : int;  (** transitions observed *)
  rounds : int;  (** rounds completed at the end of the run *)
  convenes : int;  (** meetings convened *)
  mean_concurrency : float;  (** average number of simultaneous meetings *)
  max_concurrency : int;
  completed_waits_steps : int list;  (** durations of served waiting spans *)
  completed_waits_rounds : int list;
  open_waits_steps : int list;  (** still-waiting spans at the end (per professor still waiting) *)
  max_wait_steps : int;  (** max over completed and open spans *)
  max_wait_rounds : int;
  starved : int list;  (** professors whose final open span is the longest-running *)
}

type t

val create :
  ?telemetry:Snapcc_telemetry.Hub.t ->
  Snapcc_hypergraph.Hypergraph.t ->
  initial:Snapcc_runtime.Obs.t array ->
  t
(** With [telemetry], every measurement is also emitted as a typed event:
    [convene]/[terminate] per committee transition, [wait_open]/[wait_close]
    per waiting span (the [wait_close] duration also feeds the hub's
    ["wait_steps"] histogram) — so an offline aggregation of the event
    stream ({!Snapcc_telemetry.Stats}) reproduces this module's summary
    exactly. *)

val on_step :
  t -> step:int -> round:int ->
  before:Snapcc_runtime.Obs.t array -> after:Snapcc_runtime.Obs.t array -> unit
(** Fold one transition.  O(1) when [before == after] and [after] is the
    array the previous call processed, once the wait book is at its
    fixpoint for it: the step and its concurrency are counted and nothing
    else can change.  The book is not at its fixpoint when that previous
    call opened a wait for a professor inside a meeting; the next step
    over the same array drops that wait, so it takes the full pass.  The
    result is exact either way.  Physical identity is trusted, so callers
    must never mutate a configuration they passed in ([initial]
    included). *)

val finish : t -> step:int -> round:int -> summary
(** Close the books; open waiting spans are measured up to [step]/[round]. *)

val mean : int list -> float

val maximum : int list -> int

val percentile : float -> int list -> int
(** [percentile 0.95 waits] with nearest-rank semantics
    ([Snapcc_telemetry.Registry.nearest_rank]); 0 on the empty list.  Used
    for the waiting-time distribution tables. *)

val pp_summary : Format.formatter -> summary -> unit

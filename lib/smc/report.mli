(** The published smc report: every estimate with its interval.

    Free of wall-clock times and worker counts by construction — a pure
    function of the run parameters and the trial records, so reports
    from different worker counts (same seed) are byte-identical. *)

type dist = {
  samples : int;
  mean : float;
  sd : float;
  ci : Estimator.ci;  (** Student-t interval on the mean *)
  p50 : int;  (** nearest-rank percentiles ({!Snapcc_analysis.Metrics}) *)
  p90 : int;
  p99 : int;
  max : int;
}

type proportion = {
  count : int;
  p : float;
  ci : Estimator.ci;  (** Wilson score interval *)
}

type t = {
  algo : string;
  topo : string;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;
  trials : int;  (** records actually aggregated (SPRT may stop early) *)
  seed : int;
  confidence : float;
  stabilization : dist option;
      (** stabilization times over the trials that stabilized; [None]
          when none did *)
  stabilized : proportion;  (** P(stabilized within budget) *)
  waiting : dist option;  (** waiting spans pooled across all trials *)
  deadlock : proportion;  (** P(terminal freeze within budget) *)
  violations : int;  (** total Spec verdicts across trials *)
  sprt : Sprt.outcome option;
}

val dist_of : confidence:float -> int list -> dist option
(** The distribution of the samples, [None] when there are none.  The
    ranks and the maximum equal [Metrics.percentile] and
    [Metrics.maximum] of the same list. *)

val build :
  algo:string ->
  topo:string ->
  daemon:string ->
  workload:string ->
  disc:int ->
  budget:int ->
  seed:int ->
  confidence:float ->
  ?sprt:Sprt.outcome ->
  Trial.record list ->
  t

val ok : t -> bool
(** No violations and no rejected SPRT claim — `ccsim smc' exits 0. *)

val to_json : t -> Snapcc_telemetry.Json.t
(** Whole-file JSON artifact (validated by `ccsim stats
    --validate-json'); deterministic under the seed. *)

val pp : Format.formatter -> t -> unit

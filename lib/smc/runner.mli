(** Orchestration of an smc run: catalog resolution (with packed hooks
    built once, in the parent, whose scan memo every trial of a worker
    shares), the worker pool, SPRT batching, telemetry and the report.

    The merged result is byte-reproducible for any [workers] value:
    records are pure functions of [(seed, trial)] ({!Trial}), the pool
    returns them in index order ({!Pool}), SPRT consumes fixed-size
    index batches, and only the parent emits telemetry. *)

type cfg = {
  algo : string;  (** any {!Snapcc_mc.Systems} name *)
  topo_name : string;
  topo : Snapcc_hypergraph.Hypergraph.t;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;  (** per-trial step horizon *)
  trials : int;  (** trial count (upper bound under SPRT) *)
  workers : int;
  seed : int;
  confidence : float;
  engine : [ `Packed | `Closure ];
  sprt : float option;
      (** [Some theta] switches to SPRT mode: test
          "P(stabilized within {!field-sprt_within}) >= theta" with early
          stopping, [trials] as the truncation bound *)
  sprt_delta : float;  (** indifference half-width *)
  sprt_within : int option;  (** success horizon; default [budget] *)
}

val run :
  ?telemetry:Snapcc_telemetry.Hub.t -> cfg -> (Report.t, string) result
(** Errors on unknown algo/daemon/workload names; raises [Failure] if a
    worker dies mid-run.  With [telemetry], emits [run_start], one
    [smc_trial] per record (in trial order) and a [run_end] — the JSONL
    trace is identical for any worker count. *)

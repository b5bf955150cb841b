(** Aggregation of an event stream back to a run summary, online or
    offline.

    The aggregation is one incremental fold ({!t}).  [ccsim run/mp/net
    --emit-json] attach it to the run's hub as a {!sink}, so the summary
    is folded while the run executes and no event is kept; [ccsim stats
    FILE] folds the parsed JSONL artifact through the same code
    ({!of_events}).  The two summaries are therefore identical by
    construction — same convene counts, same nearest-rank waiting-time
    percentiles, same mean concurrency. *)

type meta = {
  algo : string;
  daemon : string;
  workload : string;
  seed : int;
  n : int;
  m : int;
}

type summary = {
  steps : int;
  rounds : int;
  convenes : int;
  terminations : int;
  actions : int;  (** per-process action firings *)
  mean_concurrency : float;  (** mean simultaneous meetings per step *)
  max_concurrency : int;
  waits_completed : int;  (** served waiting spans *)
  wait_mean : float;  (** steps, over served spans *)
  wait_p50 : int;  (** nearest-rank percentiles, steps *)
  wait_p90 : int;
  wait_p95 : int;
  wait_max : int;
  violations : int;
  faults : int;
  token_handoffs : int;
  latency_histogram : (string * int) list;
      (** Delivery latencies bucketized by {!Registry.bucket_counts};
          empty when the trace carried no [net_delivered] events. *)
  outcome : string option;  (** from [run_end], if present *)
}

type t
(** The fold's state: counters plus the served waiting spans and delivery
    latencies the percentiles and histogram need — memory grows with
    those, never with the number of events. *)

val create : unit -> t

val sink : t -> Sink.t
(** A hub sink folding in every event it receives. *)

val result : t -> meta option * summary
(** The summary of the events folded so far.  [meta] is the first
    [run_start] event, if any.  [steps]/[rounds] come from [run_end] when
    present, otherwise from counting [step] events. *)

val of_events : Event.t list -> meta option * summary
(** {!result} of a fresh fold over the list. *)

val to_json : ?meta:meta -> summary -> Json.t
(** [{"meta":{..},"summary":{..,"waits":{..}}}] ([meta] omitted when
    absent). *)

val events_of_jsonl : string list -> (Event.t list, string) result
(** Parse the lines of a JSONL trace (blank lines skipped); the error names
    the first offending line.  The raw event stream backs both {!of_jsonl}
    and the offline causal analyzer. *)

val of_jsonl : string list -> (meta option * summary, string) result
(** Aggregate the lines of a JSONL trace (blank lines skipped); the error
    names the first offending line. *)

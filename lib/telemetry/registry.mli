(** Named counters, gauges and nearest-rank histograms.

    A registry is the numeric side of the telemetry layer: monotone
    counters (steps, convenes, messages), point-in-time gauges (states/s,
    resident states) and histograms that retain every sample and answer
    nearest-rank percentile queries through {!nearest_rank}, the rule
    [Snapcc_analysis.Metrics.percentile] also answers with, so
    waiting-time distributions computed online and offline agree exactly.

    Instruments are created on first use ([counter r name] twice returns
    the same instrument) and snapshots render names in sorted order, so the
    JSON output is deterministic. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit
val hist_count : histogram -> int

val nearest_rank : float -> int array -> int
(** [nearest_rank q samples]: the sample of rank [ceil (q * n)] (clamped to
    [1..n]) once [samples] is sorted ascending — in place; [0] when empty. *)

val nearest_rank_sorted : float -> int array -> int
(** {!nearest_rank} over samples already sorted ascending: no sort, no
    copy, so several ranks of one sample set cost one sort. *)

val percentile : float -> histogram -> int
(** {!nearest_rank} over all observed samples. *)

val to_json : t -> Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"min":..,
    "max":..,"mean":..,"p50":..,"p90":..,"p95":..,"p99":..}}}] with names
    sorted. *)

(** {2 Delivery-latency buckets}

    The single definition of the latency histogram edges shared by the net
    summary, [ccsim stats], bench and the live dashboards: 50, 100, 250,
    500, 1000, 2500, 5000 and 10000 µs, then an overflow bucket. *)

val bucket_counts : int list -> (string * int) list
(** Bucketize latency samples against the edges, labelled ["<=50us"], ...,
    ["<=10000us"] and [">10000us"]; every bucket is present (zeros
    included) and the counts sum to the sample count. *)

val to_prometheus : ?prefix:string -> t -> string
(** Prometheus text exposition: counters and gauges verbatim, histograms as
    summaries with exact nearest-rank quantiles.  Names are prefixed
    (default ["snapcc_"]) and sanitized to the Prometheus charset. *)

(** Event sinks: where a stamped event stream goes.

    Three concrete sinks (the hub fans out to any number of them):

    - {!jsonl}: one compact JSON object per line, [{"seq":..,"ev":..,...}].
      Bodies carry logical stamps only (step/round/seq) — never the
      monotonic timestamp — so the output is a deterministic function of
      the seed.
    - {!ring}: an in-memory buffer keeping the last [capacity] stamped
      events ([ccsim check]'s frontier samples, tests); run summaries
      are folded online by {!Stats.sink} instead.
    - {!catapult}: the Chrome trace-event ("catapult") format; open the
      file in [about://tracing] or [ui.perfetto.dev].  Committee meetings
      render as duration slices (one track per committee), concurrency as a
      counter track, actions and faults as instants.  This is the one sink
      that renders the monotonic timestamp. *)

type t

val jsonl : (string -> unit) -> t
(** [jsonl write] calls [write] with one complete line (trailing ['\n']
    included) per event.  Each line is rendered straight into one reused
    buffer — integers digit by digit, strings through {!Json.escape}, no
    {!Json.t} tree — and equals
    [Json.to_string (Obj (("seq", Int seq) :: fields)) ^ "\n"] for the
    fields of {!Event.to_json}, the reference the tests hold it to. *)

val ring : capacity:int -> t
val ring_events : t -> Event.stamped list
(** Chronological contents of a {!ring} sink (the last [capacity] events);
    [[]] for other sinks. *)

val catapult : (string -> unit) -> t
(** The output is a single JSON object [{"traceEvents":[...]}]; it becomes
    valid JSON once {!close} is called. *)

val custom : emit:(Event.stamped -> unit) -> close:(unit -> unit) -> t
(** An arbitrary consumer on the hub's fan-out — the live dashboard and the
    Prometheus exposition attach this way.  [close] runs once, on the first
    {!close}. *)

val emit : t -> Event.stamped -> unit
val close : t -> unit
(** Flush/terminate the sink's output ({!catapult} writes its closing
    bracket here).  Idempotent; [emit] after [close] is a no-op. *)

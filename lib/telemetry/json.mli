(** Minimal self-contained JSON: a value type, a compact deterministic
    printer and a strict parser.

    The repository deliberately avoids external JSON dependencies; this
    module is the single serialization point for every machine-readable
    artifact (JSONL traces, run summaries, check/lint reports, catapult
    exports, BENCH files).  The printer is deterministic: object fields are
    emitted in the order given, floats are rendered with a fixed format, no
    whitespace is inserted — so byte-for-byte comparison of artifacts is
    meaningful (the telemetry determinism tests rely on it). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no spaces, no trailing newline).  [Float] values are
    printed with ["%.12g"], except non-finite values which become [null]
    (JSON has no inf/nan). *)

val escape : Buffer.t -> string -> unit
(** [escape buf s] appends [s] as a JSON string literal, quotes included,
    exactly as {!to_string} renders [String s] — the one string escaper,
    shared with renderers that write straight into a buffer
    ({!Sink.jsonl}). *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Strict parse of a single JSON value (surrounding whitespace allowed;
    trailing garbage is an error).  Numbers containing ['.'], ['e'] or
    ['E'] parse as [Float], others as [Int].  [\uXXXX] escapes are decoded
    to UTF-8. *)

(** {2 Accessors} — total, for digging into parsed values. *)

val member : string -> t -> t option
(** Field of an [Obj], [None] otherwise. *)

val to_int : t -> int option
(** [Int n] and integral [Float] values. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

(** Vector clocks for causal tracing.

    One component per professor.  The stamping discipline is the classical
    one; [Snapcc_mp.Mp_semantics] holds it for both message-passing
    runtimes (the in-process emulation and the networked orchestrator),
    and each forked node process keeps its own clock by the same rules:

    - process [p]'s first event (its initial configuration) sets component
      [p] to 1;
    - a local activation that fires an action ticks component [p];
    - accepting a snapshot delivery merges the clock carried on the frame,
      then ticks component [p];
    - a corruption fault ticks each victim's own component.

    Clocks travel on the wire as a compact trailer ({!encode_wire}): full
    LEB128 vectors on keyframes, sparse positive deltas against the last
    acknowledged clock otherwise — mirroring the XOR snapshot deltas of
    [lib/net].  Comparison ({!compare_clocks}) decides happens-before:
    [Before a b] iff the event stamped [a] causally precedes the event
    stamped [b]. *)

type t = int array

val create : int -> t
(** [create n] is the zero clock over [n] processes. *)

val copy : t -> t
val tick : t -> int -> unit
val merge_into : into:t -> t -> unit
(** Pointwise max, in place.  Raises [Invalid_argument] on length mismatch. *)

val merge : t -> t -> t

val leq : t -> t -> bool
(** Pointwise [<=]; [false] on length mismatch. *)

type order =
  | Equal
  | Before
  | After
  | Concurrent

val compare_clocks : t -> t -> order
val to_list : t -> int list
val of_list : int list -> t
val to_string : t -> string

(** {2 Wire codec} *)

val encode_full : t -> string
val decode_full : string -> t option
(** Strict: trailing bytes, truncation and oversized counts are [None]. *)

val encode_wire : ?base:t -> t -> string
(** Delta form against [base] when expressible and no larger, else full.
    No delta is expressible when some component shrank relative to [base]
    (link reordering) or the lengths differ. *)

val decode_wire : ?base:t -> string -> t option
(** Inverse of {!encode_wire}; delta-form input without [base] is [None]. *)

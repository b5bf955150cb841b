(** Dense guard/footprint tables over the interned per-process state
    domains — the exact static-analysis engine and the explorer's
    table-driven fast path.

    For each process [p] the builder enumerates the {e full} product of the
    declared {!System.S.domain}s of [p]'s read support (its closed
    neighborhood, extended on demand when an evaluation actually reads
    beyond it) under every uniform input mode ({!Snapcc_runtime.Model.input_modes}),
    running the engine's backwards priority scan on every cell.  Verdicts
    derived from a completed pass are therefore {e absolute over the
    declared domains}, not relative to a sampled reachable set: a guard
    that never held is provably unsatisfiable on the domain product, a read
    that never left the neighborhood provably local, and so on.

    Two caps keep instances honest rather than silently truncated: a pass
    whose product exceeds the {e enumeration} cap is skipped outright (the
    process is reported as such — no verdicts are claimed for it), and a
    completed pass is additionally {e stored} as packed per-(process, mode)
    entry tables only when it fits the storage cap.  Stored tables drive
    {!Explore.Make.explore}'s lookup fast path and serialize via
    {!portable} (see [Snapcc_statics.Artifact]). *)

val nmodes : int
(** Number of uniform input modes (= [Array.length Model.input_modes]). *)

(** Structural side-condition evidence observed during enumeration.
    Occurrence counts are (cell, mode) pairs. *)
type incident =
  | Nonlocal_read of { proc : int; action : string; read : int }
      (** an evaluation of [action] by [proc] read non-neighbor [read] *)
  | Foreign_mutation of { proc : int; victim : int }
      (** enumerating [proc]'s actions mutated an interned domain state of
          [victim] in place (write-ownership violation; detected by
          fingerprint comparison after the pass, so not attributed to a
          specific action) *)
  | Nondet of { proc : int; action : string; what : [ `Guard | `Apply ] }
      (** two evaluations on the same cell disagreed *)
  | Crashed of {
      proc : int;
      action : string;
      what : [ `Guard | `Apply ];
      exn : string;
    }

(** {2 Packed entries}

    [entry >= 0] encodes the backwards-scan outcome on a cell:
    the chosen action index, whether executing it changes the process's
    state, the 16-bit mask of processes read (scan from the chosen action
    up, plus the statement), and the dense successor state id.
    [-1] = no action enabled; [-2] = unavailable (returned by {!Make.entry}
    when the table is missing or the configuration contains an escapee). *)

val entry_act : int -> int
val entry_changes : int -> bool
val entry_reads : int -> int
val entry_succ : int -> int

type proc_tbl = {
  support : int array;  (** processes read, ascending; includes the owner *)
  sizes : int array;  (** domain size per support process *)
  strides : int array;  (** row-major, last support process fastest *)
  entries : int array array;  (** per input mode, [Π sizes] packed entries *)
}

type portable = {
  p_algo : string;
  p_topo : string;
  p_n : int;
  p_labels : string array;
  p_dom : int array;  (** declared-domain size per process *)
  p_procs : (proc_tbl, string) result array;  (** [Error reason] = skipped *)
}
(** Functor-free image of a table set, for serialization. *)

module Make (Sys : System.S) : sig
  type t

  val build :
    ?verify:bool ->
    ?cap:int ->
    ?store_cap:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** Enumerate every process's support product.  [verify] (default false)
      additionally evaluates every guard and statement twice (determinism)
      and fingerprints the interned domain states around each pass
      (write-ownership) — the exact-lint configuration; leave it off when
      only the fast-path tables are wanted.  [cap] (default [2^27]) bounds
      the (cell, mode) pairs {e enumerated} per process; [store_cap]
      (default [2^24]) bounds the entries {e stored} per process.  Both
      overruns surface as [`Skipped] statuses, never as silent truncation.

      Statement crashes yield a disabled entry (the engine would have
      crashed); in-place mutation marks the result {!tainted} (the
      hash-consed stores are then corrupted, so tables and statistics are
      unreliable — findings remain valid evidence). *)

  val enc : t -> Encode.Make(Sys).t
  (** The interner the tables are keyed by; hand it to the explorer so ids
      stay consistent across both. *)

  val labels : t -> string array
  val support : t -> int -> int array

  val status : t -> int -> [ `Built | `Streamed of string | `Skipped of string ]
  (** [`Built] = enumerated and stored; [`Streamed reason] = the pass
      completed (verdicts are exact) but the entries exceeded the storage
      cap; [`Skipped reason] = not enumerated — no verdicts are claimed for
      this process. *)

  val built : t -> bool
  (** All processes stored ([`Built]). *)

  val complete : t -> bool
  (** All processes enumerated ([`Built] or [`Streamed]) — the condition
      under which zero {!guard_true} counts are dead-action {e proofs}. *)

  val entry : t -> mode:int -> proc:int -> int array -> int
  (** [entry t ~mode ~proc cfg] — packed entry for the configuration given
      as dense per-process state ids; [-2] if unavailable. *)

  val guard_true : t -> int array
  (** Per action: (cell, mode) pairs on which the guard held, summed over
      all completed passes.  Zero for every process ⇒ provably dead on the
      enumerated product (only meaningful when no pass was skipped). *)

  val overlaps : t -> (string list * int * int) list
  (** [(labels, cells, example_proc)]: ≥2 simultaneously enabled actions. *)

  val incidents : t -> (incident * int) list
  val cells : t -> int
  (** Total (cell, mode) pairs enumerated. *)

  val seconds : t -> float
  val tainted : t -> bool

  val enumerate :
    ?cap:int ->
    t ->
    proc:int ->
    init:(support:int array -> sizes:int array -> unit) ->
    cell:(mode:int -> ids:int array -> entry:int -> unit) ->
    bool
  (** Stream every (cell, mode) pair of one process's pass to [cell], in
      odometer order ([ids] is the live per-support digit vector, aligned
      with [support] — read, don't keep).  Stored tables are decoded by
      lookup; a streamed or skipped process reruns {!build}'s pass, without
      verify, from the support {!build} reached.  [init] fires at every
      (re)start — an on-demand support extension discards the partial
      stream, so consumers must reset accumulators there.  Returns [false]
      when the product exceeds [cap] (default [2^27]) or the pass failed;
      nothing is claimed in that case. *)

  val interference :
    ?cap:int -> t -> (string * string * int) list
  (** [(writer, reader, cells)]: over the joint product of each ordered
      neighbor pair with stored tables, cells where the writer's chosen
      action changes its state while the reader's evaluation reads the
      writer.  Pairs whose joint product exceeds [cap] are omitted. *)

  val to_portable : algo:string -> topo:string -> t -> portable
end

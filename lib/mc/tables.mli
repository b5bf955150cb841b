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
    completed pass is additionally {e stored} as a per-process table only
    when it fits the storage cap.  A cell's {e row} is its packed entries
    under the [nmodes] input modes; a stored table keeps one 16-bit row
    code per cell and each distinct row once (cc1∘vring on triangle3: 2
    bytes per cell and 193–217 rows per process, against 32 bytes per cell
    as four per-mode word arrays), so a process whose cells hold more than
    {!max_rows} distinct rows is streamed.  Stored tables drive
    {!Explore.Make.explore}'s lookup fast path and serialize via
    {!portable} (see [Snapcc_statics.Artifact]). *)

val nmodes : int
(** Number of uniform input modes (= [Array.length Model.input_modes]). *)

val advance : int array -> int array -> int -> int
(** [advance ids sizes j]: one step of the odometer over the product of
    [sizes], digits [0 .. j], digit [j] fastest.  Returns the lowest digit
    that changed (every later one wrapped to 0), or [-1] once the whole
    product has been visited (every digit back at 0). *)

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

type proc_tbl = private {
  support : int array;  (** processes read, ascending; includes the owner *)
  sizes : int array;  (** domain size per support process *)
  strides : int array;  (** row-major, last support process fastest *)
  codes : Bytes.t;
      (** per cell (row-major index), the code of its row: 16 bits,
          little-endian; codes are numbered in first-occurrence order over
          the cells *)
  rows : int array;  (** per row code, the [nmodes] packed entries of the row *)
}
(** One process's stored table.  Read it through {!cell_code} and
    {!code_entry}. *)

val max_rows : int
(** Row codes per table: [2^16]. *)

val ncells : proc_tbl -> int
(** [Π sizes]. *)

val cell_code : proc_tbl -> int -> int
(** [cell_code tb cell] — the row code of a cell, by row-major index. *)

val code_entry : proc_tbl -> int -> mode:int -> int
(** [code_entry tb code ~mode] — the packed entry of row [code] under
    [mode]. *)

val of_rows :
  support:int array ->
  sizes:int array ->
  strides:int array ->
  (cell:int -> mode:int -> int) ->
  (proc_tbl, string) result
(** The table whose entry on [cell] under [mode] is [entry ~cell ~mode],
    asked cell by cell in row-major order, modes innermost.  [Error] when
    the cells hold more than {!max_rows} distinct rows. *)

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
      (default [2^24]) bounds the entries {e stored} per process.  Overruns
      surface as statuses, never as silent truncation: [`Skipped] past
      [cap], [`Streamed] past [store_cap] or past {!max_rows} distinct
      rows.

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
      cap or the row codes; [`Skipped reason] = not enumerated — no
      verdicts are claimed for this process. *)

  val built : t -> bool
  (** All processes stored ([`Built]). *)

  val complete : t -> bool
  (** All processes enumerated ([`Built] or [`Streamed]) — the condition
      under which zero {!guard_true} counts are dead-action {e proofs}. *)

  val entry : t -> mode:int -> proc:int -> int array -> int
  (** [entry t ~mode ~proc cfg] — packed entry for the configuration given
      as dense per-process state ids; [-2] if unavailable.  Equal to
      [entry_of_code t ~proc ~code:(row_code t ~proc cfg) ~mode]. *)

  val row_code : t -> proc:int -> int array -> int
  (** [row_code t ~proc cfg] — the row code of [proc]'s cell in [cfg];
      [-1] if [proc] has no stored table or [cfg] holds an escapee id in
      its support.  The row serves every mode. *)

  val entry_of_code : t -> proc:int -> code:int -> mode:int -> int
  (** The packed entry of row [code] of [proc] under [mode]; [-2] when
      [code < 0]. *)

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

  val interference : t -> (string * string * int) list
  (** [(writer, reader, cells)]: over the joint product of each ordered
      neighbor pair with stored tables, cells where the writer's chosen
      action changes its state while the reader's evaluation reads the
      writer.  Pairs whose joint product exceeds [2^27] (cell, mode)
      pairs are omitted. *)

  val to_portable : algo:string -> topo:string -> t -> portable
end

(** The packed engine's hooks.

    [Make(Sys).hooks] packages an interner of [Sys]'s canonical states
    ({!Encode.Make.on_demand}: ids are assigned on first sight, and no
    declared domain is enumerated) and an empty scan memo as the
    engine-agnostic {!Snapcc_runtime.Model.packed} closures the simulation
    engine consumes ([Snapcc_runtime.Engine.Make.create ?packed]).  The
    engine keys each guard scan of [p] on the ids and input modes of its
    closed neighbourhood and fills the memo from the guard closures as it
    runs, so building hooks costs O(n) on any topology.

    The fast path is strictly an accelerator: the engine keeps the true
    typed states authoritative and only routes {e guard scans} through the
    memo, so packed runs are trace-identical to closure runs (same enabled
    sets, same daemon draws — the parity test suite asserts it). *)

val startup_cap : int
(** [2^20]: the default bound of {!Make.build}. *)

module Make (Sys : System.S) : sig
  type t

  val build : ?cap:int -> Snapcc_hypergraph.Hypergraph.t -> t
  (** [cap] (default {!startup_cap}) bounds, per process, the interned
      states (rounded up to a power of two) and the memo's entries.  Past
      the interner's bound [pk_intern] raises [Failure], and the engine
      falls back to the guard closures for the rest of the run.  The
      option is kept for bench/perf; ROADMAP item 1 removes it. *)

  val coverage : t -> float
  (** Always [0.]: no table is built.  Kept for bench/perf; ROADMAP item
      1 removes it. *)

  val hooks : t -> Sys.state Snapcc_runtime.Model.packed
  (** Each call shares [t]'s interner and carries a fresh, unallocated
      memo; every engine created from one hooks value shares that memo. *)
end

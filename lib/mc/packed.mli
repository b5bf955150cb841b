(** Packed-configuration engine front end.

    [Make(Sys).build] enumerates the exact guard/footprint tables of a
    system ({!Tables}) and {!Make.hooks} repackages them, with the interner
    they are keyed by and an empty scan memo, as the engine-agnostic
    {!Snapcc_runtime.Model.packed} closures consumed by the simulation
    engine ([Snapcc_runtime.Engine.Make.create ?packed]) and the
    message-passing engine ([Snapcc_mp.Mp_engine.Make.create ?packed]).

    The two engines use different halves.  The simulation engine reads
    only the interner and the memo: it keys each process's scan on the
    canonical ids and input modes of its closed neighbourhood and fills
    the memo from the guard closures as it runs, so it needs no stored
    table and no process limit.  The message-passing engine looks
    activations up in the stored tables, and processes whose tables were
    skipped or streamed ({!Tables.Make.status}) fall back to the guard
    closures cell by cell.

    Either way the fast path is strictly an accelerator: engines keep the
    true typed states authoritative and only route {e guard scans} through
    it, so packed runs are trace-identical to closure runs (same enabled
    sets, same daemon draws — the parity test suite asserts it). *)

val startup_cap : int
(** [2^20]: the table budget of the interactive paths ([ccsim run],
    [ccsim mp], smc), in footprint cells per process — a process whose
    table would exceed it is skipped in O(1) and served by the guard
    closures — and the bound on the scan memo's entries per process. *)

module Make (Sys : System.S) : sig
  type t

  val build :
    ?verify:bool ->
    ?cap:int ->
    ?store_cap:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** See {!Tables.Make.build}.  A tighter [cap] turns expensive processes
      into immediate [`Skipped] statuses (closure fallback) instead of long
      enumerations — the knob callers use to bound startup cost. *)

  val try_build : Snapcc_hypergraph.Hypergraph.t -> t
  (** {!build} at {!startup_cap}, or interner-only hooks when the tables
      cannot represent the topology at all (they bit-pack configurations
      of at most 16 processes): no stored table, [pk_built] false
      everywhere, and an interner that enumerates no declared domain and
      holds at most {!startup_cap} states per process.  The simulation
      engine's memo works the same on both. *)

  val has_tables : t -> bool
  (** [false] for the interner-only fallback of {!try_build}.  The
      message-passing engine has nothing to look up then. *)

  val built : t -> bool
  (** Every process has a stored table (the message-passing engine's run
      is wholly table-driven). *)

  val coverage : t -> float
  (** Fraction of processes with a stored table. *)

  val hooks : t -> Sys.state Snapcc_runtime.Model.packed
  (** Each call carries a fresh, unallocated memo; every engine created
      from one hooks value shares it. *)
end

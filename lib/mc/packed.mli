(** Packed-configuration engine front end.

    [Make(Sys).build] enumerates the exact guard/footprint tables of a
    system ({!Tables}) and {!Make.hooks} repackages them as the
    engine-agnostic {!Snapcc_runtime.Model.packed} closures consumed by the
    simulation engine ([Snapcc_runtime.Engine.Make.create ?packed]) and the
    message-passing engine ([Snapcc_mp.Mp_engine.Make.create ?packed]).

    The fast path is strictly an accelerator: engines keep the true typed
    states authoritative and only route {e guard scans} through the packed
    entries, so packed runs are trace-identical to closure runs (same
    enabled sets, same daemon draws — the parity test suite asserts it).
    Processes whose tables were skipped or streamed ({!Tables.Make.status})
    fall back to the guard closures cell by cell. *)

val startup_cap : int
(** [2^20] footprint cells: the table budget of the interactive paths
    ([ccsim run], [ccsim mp], smc).  A process whose table would exceed it
    is skipped in O(1) and served by the guard closures. *)

module Make (Sys : System.S) : sig
  module Tb : module type of Tables.Make (Sys)

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

  val try_build : Snapcc_hypergraph.Hypergraph.t -> t option
  (** {!build} at {!startup_cap}, or [None] when the tables cannot
      represent the topology at all (they bit-pack configurations of at
      most 16 processes).  Callers then keep the guard closures, which are
      trace-identical. *)

  val tables : t -> Tb.t
  val built : t -> bool
  (** Every process has a stored table (the whole run is table-driven). *)

  val coverage : t -> float
  (** Fraction of processes with a stored table. *)

  val hooks : t -> Sys.state Snapcc_runtime.Model.packed
end

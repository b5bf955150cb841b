(** Dining-philosophers reduction baseline (Chandy–Misra [2], §6).

    Each committee is a philosopher hosted at its minimum-identifier member;
    the professors themselves are the forks ("neighboring philosophers have
    a common member").  Deadlock is avoided by ordered acquisition: a
    professor grants itself to a pursuing committee only once every
    smaller-identifier member is already granted.

    Satisfies Exclusion, Synchronization and Progress from clean starts,
    but is neither snap-stabilizing nor fair — the §6 contrast point.
    Implements {!Snapcc_runtime.Model.ALGO}. *)

type state = {
  s : Snapcc_core.Cc_common.status;
  owner : int option;  (** committee currently holding this professor-fork *)
  choice : int option;  (** as host: the hosted committee being pursued *)
  disc : int;  (** essential discussions performed *)
}

include Snapcc_runtime.Model.ALGO with type state := state

val host : Snapcc_hypergraph.Hypergraph.t -> int -> int
(** Host (philosopher site) of a committee: its minimum-identifier member. *)

val domain : Snapcc_hypergraph.Hypergraph.t -> int -> state list
(** Exhaustive per-process domain ([status × owner × choice], [disc]
    pinned to 0) — makes the baseline a {!Snapcc_mc.System.S}. *)

val canon : Snapcc_hypergraph.Hypergraph.t -> int -> state -> state
(** Pins the observability-only [disc] counter to 0. *)

val rename :
  Snapcc_hypergraph.Hypergraph.t ->
  pi:int array -> eperm:int array -> int -> state -> state
(** Structural symmetry transport ({!Snapcc_mc.System.S}): fork/choice
    committee references follow the edge permutation. *)

val state_symmetries :
  Snapcc_hypergraph.Hypergraph.t -> (string * (int -> state -> state)) list
(** No internal symmetry candidates. *)

(** Static symmetry admission: lift conflict-hypergraph automorphisms (and
    declared internal state symmetries) to {e algorithm-level} symmetries,
    by proving against the exact guard/footprint tables that each candidate
    commutes with every action's packed entry on the whole support product.

    A candidate is a vertex permutation [pi] (an automorphism from
    [Snapcc_hypergraph.Automorphism], or the identity) together with a
    per-process state transport built from {!Snapcc_mc.System.S.rename} /
    [state_symmetries].  Admission requires, per process [p] and over
    {e every} (support cell, input mode):

    [entry(pi p, transported cell, mode) = transport(entry(p, cell, mode))]

    — chosen action index and change flag equal, read mask mapped through
    [pi], successor id mapped through the state transport.  The check
    streams both sides through order-independent strong hashes (one
    enumeration pass per process covers all candidates at once), so it
    works even for processes whose tables were streamed rather than
    stored.  Additionally the meeting-relevant observation fields (status,
    pointer, token flag, lock, discussions) must follow the transport
    per-process — which makes violation presence orbit-invariant, the
    soundness condition for quotient exploration.

    Admitted candidates generate the admitted group (commutation is closed
    under composition and inverse); the closure is computed by
    {!Snapcc_mc.Symmetry.close}.  The result ships as a versioned
    [snapcc-orbits v1] certificate whose {!verify} re-checks the
    {e structural} claims — generators are hypergraph automorphisms,
    transports are bijections, orbits and group order are consistent — in
    O(|generators| · |edges|) plus transport size, independently of the
    tables and of any algorithm execution (what it does {e not} re-prove is
    table commutation itself; that requires re-running the analyzer). *)

type outcome = {
  group : Snapcc_mc.Symmetry.group;
      (** the admitted group (trivial when nothing was admitted) *)
  admitted : string list;  (** admitted candidate names *)
  rejected : (string * string) list;  (** (candidate, reason) *)
  candidates : int;  (** candidates examined (identity excluded) *)
  aut_order : int;  (** structural automorphism count found (capped) *)
  aut_complete : bool;
  pairs : int;  (** (cell, mode) pairs streamed for the commutation check *)
  seconds : float;
}

module Make (Sys : Snapcc_mc.System.S) : sig
  val run :
    ?cap:int ->
    Snapcc_hypergraph.Hypergraph.t ->
    tables:Snapcc_mc.Tables.Make(Sys).t ->
    outcome
  (** [cap] bounds the (cell, mode) pairs re-enumerated per process
      (default [2^27], like the exact tier); a process over the cap
      rejects every candidate (no claims without proof).  The closure
      stops at 4096 elements, and at most 720 structural candidates are
      taken from the automorphism group. *)
end

(** {2 Certificates} *)

val magic : string
(** ["snapcc-orbits v1"]. *)

val certificate :
  algo:string ->
  topo:string ->
  Snapcc_hypergraph.Hypergraph.t ->
  outcome ->
  string list
(** Self-contained text certificate: the hypergraph's edges, the admitted
    generators with their transports, vertex/edge orbits, group order and
    admission metadata. *)

val verify : string list -> (unit, string) result
(** Independent structural verifier (see the module preamble).  Total on
    hostile input: a certificate whose domain sizes are below 1 or total
    more than 2^24 is an [Error] before anything is allocated. *)

val save : string -> algo:string -> topo:string ->
  Snapcc_hypergraph.Hypergraph.t -> outcome -> unit

val verify_file : string -> (unit, string) result

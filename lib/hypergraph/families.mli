(** Hypergraph families: the paper's figures plus parametric and random
    topologies used by tests, examples and benchmarks. *)

val fig1 : unit -> Hypergraph.t
(** Fig. 1: 6 professors, committees
    [{1,2} {1,2,3,4} {2,4,5} {3,6} {4,6}] (identifiers as in the paper,
    vertices 0-based underneath). *)

val fig2 : unit -> Hypergraph.t
(** Fig. 2 / Theorem 1: 5 professors, committees [{1,2} {1,3,5} {3,4}]. *)

val fig3 : unit -> Hypergraph.t
(** The 10-professor system of the §4.1 worked example.  The paper only
    names the committees exercised by the run
    ([{1,2,3} {5,6} {6,7} {7,8} {8,9} {9,10} {6,9}]); we close the roster
    with [{3,4}] and [{4,5}] so that professor 4 exists as in the figure. *)

val fig4 : unit -> Hypergraph.t
(** Fig. 4 / locking example: 9 professors, committees
    [{1,2,5,8} {3,4,5} {6,7,9} {8,9}]. *)

val pair_ring : int -> Hypergraph.t
(** [pair_ring n] (n >= 3): committees [{i, i+1 mod n}]. *)

val path : int -> Hypergraph.t
(** [path n] (n >= 2): committees [{i, i+1}]. *)

val star : int -> Hypergraph.t
(** [star n] (n >= 2): committees [{0, i}]; all committees conflict, so at
    most one meeting can ever hold (§3.2 remark). *)

val clique : int -> Hypergraph.t
(** [clique n] (n >= 2): one committee per pair of professors. *)

val k_uniform_ring : n:int -> k:int -> Hypergraph.t
(** [k_uniform_ring ~n ~k]: committees [{i, .., i+k-1 mod n}]; requires
    [2 <= k < n] and [n >= 3]. *)

val single : int -> Hypergraph.t
(** [single k] (k >= 2): one committee containing all [k] professors. *)

val random : seed:int -> n:int -> m:int -> Hypergraph.t
(** [random ~seed ~n ~m] ([n >= 4]) draws [m] distinct random committees
    of 2 to 4 members, then patches the result so that every professor is
    covered and the underlying network is connected (which may add a few
    extra committees).  Deterministic in [seed]. *)

val with_shuffled_ids : seed:int -> Hypergraph.t -> Hypergraph.t
(** Same structure, identifiers permuted deterministically: exercises the
    id-based symmetry breaking of the algorithms. *)

val all_named : unit -> (string * Hypergraph.t) list
(** A labelled collection of small topologies (figures + parametric
    instances) used by test and experiment sweeps. *)

val by_name : string -> Hypergraph.t
(** Look up one of {!all_named} (plus [ring<n>]/[path<n>]/[line<n>]/
    [star<n>]/[clique<n>]/[single<n>] parsed forms, e.g. ["ring12"];
    ["line<n>"] is an alias of ["path<n>"], and ["triangle"]/["triangle3"]
    of ["ring3"]).  Raises [Invalid_argument] on unknown names and on
    parsed forms past {!Hypergraph.max_professors} or
    {!Hypergraph.max_committees}. *)

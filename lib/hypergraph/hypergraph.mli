(** Distributed systems as hypergraphs (paper, §2.1).

    Vertices model professors (processes) and hyperedges model committees
    (synchronization events).  Vertices are indexed [0 .. n-1]; each vertex
    additionally carries a unique integer {e identifier} drawn from a total
    order, because the algorithms break symmetry with [max] over identifiers.
    By default the identifier of vertex [v] is [v] itself, but generators may
    permute identifiers to exercise id-dependent behaviour. *)

type edge = private {
  eid : int;  (** index of the hyperedge in [0 .. m-1] *)
  members : int array;  (** sorted vertex indices, at least 2 of them *)
}

type t

exception Invalid of string
(** Raised by {!create} on malformed input (empty system, singleton or
    duplicate committees, out-of-range members, duplicate identifiers, or a
    disconnected underlying network). *)

val create : ?ids:int array -> n:int -> int list list -> t
(** [create ~n edges] builds the hypergraph with vertices [0 .. n-1] and the
    given committees.  Each committee must have between 2 and [n] distinct
    members in range; committees must be pairwise distinct as sets; every
    vertex must belong to at least one committee and the underlying
    communication network must be connected (the model lets members of a
    committee read each other, so an isolated professor cannot coordinate).
    [ids], when given, assigns distinct identifiers to vertices. *)

val max_professors : int
val max_committees : int
(** [2^20] each: the largest system {!Families.by_name} and
    {!Hypergraph_io.parse} build from a name or a file, which come from
    outside the program (a counterexample's [topo] line, a committee
    file).  Past either cap they fail before allocating. *)

val n : t -> int
(** Number of vertices (professors). *)

val m : t -> int
(** Number of hyperedges (committees). *)

val edges : t -> edge array
val edge : t -> int -> edge
val edge_members : t -> int -> int array

val id : t -> int -> int
(** [id h v] is the unique identifier of vertex [v]. *)

val vertex_of_id : t -> int -> int
(** Inverse of {!id}.  Raises [Not_found] for unknown identifiers. *)

val incident : t -> int -> int array
(** [incident h v] is [Ev]: indices of hyperedges incident to [v], sorted. *)

val neighbors : t -> int -> int array
(** [neighbors h v] is [N(v)]: vertices sharing a hyperedge with [v],
    sorted, excluding [v] itself. *)

val are_neighbors : t -> int -> int -> bool
val mem_edge : t -> vertex:int -> eid:int -> bool

val conflicting : t -> int -> int -> bool
(** Two committees conflict iff they share a member (paper, §2.3). *)

val degree : t -> int -> int
(** Number of incident hyperedges of a vertex. *)

val graph_degree : t -> int -> int
(** Number of neighbors of a vertex in the underlying network. *)

val min_edge_size : t -> int -> int
(** [min_edge_size h v] is [minEp]: the minimum length of a hyperedge
    incident to [v] (§5.3). *)

val min_edges : t -> int -> int array
(** [min_edges h v] is [MinEdges_v]: incident hyperedges of minimum length
    (Algorithm 2), sorted.  Computed once at construction; the array is
    shared, like {!incident}'s. *)

val max_min : t -> int
(** [MaxMin = max_v minE_v] (§5.3, used by Theorem 5). *)

val max_hedge : t -> int
(** [MaxHEdge = max_e |e|] (§5.4, used by Theorem 8). *)

val underlying : t -> int array array
(** The underlying communication network [G_H] (§2.1) as sorted adjacency
    lists indexed by vertex. *)

val restrict : t -> removed:int list -> t option
(** [restrict h ~removed] is the subhypergraph induced by [V \ removed]:
    keeps the hyperedges all of whose members survive.  Returns [None] when
    no hyperedge survives.  Vertex indexing is preserved (vertices simply
    lose incident edges); the connectivity requirement is waived for the
    restricted hypergraph since it only feeds matching computations. *)

val pp : Format.formatter -> t -> unit
val pp_edge : t -> Format.formatter -> int -> unit
(** Prints a committee as [{id1,id2,...}] using vertex identifiers. *)

val to_string : t -> string
val equal : t -> t -> bool

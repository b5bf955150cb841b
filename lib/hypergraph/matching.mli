(** Matching theory on hypergraphs (paper §5.3).

    A matching is a set of pairwise non-conflicting committees; a maximal
    matching admits no superset.  These computations are exact and
    exponential in the number of committees, intended for the small
    topologies on which the degree-of-fair-concurrency experiments check the
    theoretical bounds ([m <= 62] enforced, practical up to [m ~ 20]). *)

val is_matching : Hypergraph.t -> int list -> bool
val is_maximal_matching : Hypergraph.t -> int list -> bool

val iter_maximal_matchings : Hypergraph.t -> (int list -> unit) -> unit
(** Enumerates every maximal matching exactly once (edge ids, sorted). *)

val maximal_matchings : Hypergraph.t -> int list list

val min_maximal_matching : Hypergraph.t -> int
(** [minMM]: size of the smallest maximal matching. *)

val max_matching : Hypergraph.t -> int
(** Size of a maximum matching. *)

val greedy_maximal_matching : ?order:int array -> Hypergraph.t -> int list
(** A maximal matching built greedily in the given edge order (default:
    increasing edge id) — what an exhausted greedy scheduler produces. *)

val min_mm_with_amm : Hypergraph.t -> int
(** [min MM ∪ AMM] of §5.3: the Theorem 4 lower bound on the degree of fair
    concurrency of [CC2 ∘ TC].  When [AMM] is empty this is [minMM]. *)

val min_mm_with_amm' : Hypergraph.t -> int
(** [min MM ∪ AMM'] of §5.4: the Theorem 7 lower bound for [CC3 ∘ TC]
    (candidate committees range over all of [Ep], not just [Emin_p]). *)

type bounds = {
  min_mm : int;  (** size of smallest maximal matching *)
  max_matching : int;  (** size of maximum matching *)
  max_min : int;  (** [MaxMin] (§5.3) *)
  max_hedge : int;  (** [MaxHEdge] (§5.4) *)
  dfc_cc2 : int;  (** Theorem 4: [min MM ∪ AMM] *)
  dfc_cc3 : int;  (** Theorem 7: [min MM ∪ AMM'] *)
  thm5_lower : int;  (** Theorem 5: [minMM - MaxMin + 1] *)
  thm8_lower : int;  (** Theorem 8: [minMM - MaxHEdge + 1] *)
}

val bounds : Hypergraph.t -> bounds
(** All bounds at once (shares the enumeration work). *)

val pp_bounds : Format.formatter -> bounds -> unit

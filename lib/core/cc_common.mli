(** Vocabulary shared by the committee-coordination algorithms. *)

type status = Idle | Looking | Waiting | Done

val pp_status : Format.formatter -> status -> unit

val to_obs_status : status -> Snapcc_runtime.Obs.status

(** Edge-selection strategy used where the paper writes
    "[Pp := ε such that ε ∈ ...]": the choice is a don't-care for
    correctness, but pluggable for the ablation benches. *)
module type PARAMS = sig
  val prefer : Snapcc_hypergraph.Hypergraph.t -> int -> int -> bool
  (** [prefer h e' e]: candidate committee [e'] beats the incumbent [e].
      The choice folds over the candidates in ascending edge id, starting
      from the first, and keeps the incumbent unless [prefer] says
      otherwise.  Must be deterministic: the static analyzer
      ([lib/statics]) flags nondeterministic statements. *)

  val tag : string
  (** Suffix the algorithm's name carries for this choice (e.g.
      ["[widest]"]; [""] for {!Default_params}), so that two edge choices
      never share a [Model.ALGO.name]. *)
end

(** Deterministic default: smallest edge id. *)
module Default_params : PARAMS

(** Largest committee first: maximizes per-meeting participation. *)
module Widest_params : PARAMS

(** Static committee priorities (the §7 future-work direction "enforcing
    priorities on convening committees"): among the candidates the paper
    leaves as a don't-care, always pick a maximum-weight one. *)
module Weighted_params (W : sig
  val weight : int -> int
  (** weight of a committee (edge id); larger = preferred *)
end) : PARAMS

val points_at : int option -> int -> bool
(** [points_at ptr e] is [ptr = Some e], without boxing [Some e] for a
    polymorphic compare. *)

val mem : int array -> int -> bool
(** Membership of an int in an array, by integer compare. *)

(** {2 Set kernels}

    The guards' set-valued macros (FreeEdges, FreeNodes, TPointingNodes,
    ...) answered without building the sets: no list, sort, option or
    polymorphic compare.  [read] is the guard's state accessor and
    [ok s ε] a condition on the state [s] of a member of committee [ε].
    Each kernel reads exactly the processes the literal set definition
    reads — "∀ member" stops at the first member that fails — so guard
    footprints do not change. *)

val all_members :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) -> bool
(** [∀q ∈ ε: ok (read q) ε]. *)

val some_member :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) -> bool
(** [∃q ∈ ε: ok (read q) ε], stopping at the first witness. *)

val some_edge :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) -> bool
(** [∃ε ∈ Ep: all_members ε ok], stopping at the first such committee. *)

val count_edges :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) -> int
(** [|{ε ∈ Ep : all_members ε ok}|]; tests every committee of [Ep]. *)

val max_member :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) ->
  ('s -> int -> bool) -> int
(** [max_member h read p ok sel]: the member [q] of maximum identifier
    among the members of the committees [ε ∈ Ep] with [all_members ε ok]
    that satisfy [sel (read q) ε]; [-1] when there is none.  Reads every
    member of every such committee. *)

val choose :
  (Snapcc_hypergraph.Hypergraph.t -> int -> int -> bool) ->
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> int -> ('s -> int -> bool) -> int
(** [choose prefer h read p ok]: the {!PARAMS} choice among the committees
    [ε ∈ Ep] with [all_members ε ok] (tests every committee of [Ep]).
    Raises [Invalid_argument] when there is none. *)

val pick :
  (Snapcc_hypergraph.Hypergraph.t -> int -> int -> bool) ->
  Snapcc_hypergraph.Hypergraph.t -> int array -> int
(** The {!PARAMS} choice among an ascending array of committees.  Raises
    [Invalid_argument] when it is empty. *)

(** Admitted symmetries of a checkable system, represented on the dense
    state ids of {!Encode}: the exchange format between the static
    admission pass ([Snapcc_statics.Symmetry]) and the quotient explorer
    ({!Explore.explore}[ ?symmetry]).

    An element is a vertex permutation [pi] together with its induced edge
    permutation [eperm] and a per-process transport [sigma]:
    [sigma.(p).(i)] is the dense id, {e at process} [pi.(p)], of the
    transported image of process [p]'s domain state [i].  Acting on a
    configuration (the per-process id vector [x]):
    [(g · x).(pi.(p)) = sigma.(p).(x.(p))].

    Soundness contract (established by the admission pass, consumed
    blindly here): every element commutes with the per-process step
    function on the whole domain product, and preserves the
    meeting-relevant observation fields up to [eperm].  Composition and
    inversion stay inside the admitted set because both properties are
    closed under them. *)

type elem = {
  name : string;  (** generator word, for reports/certificates *)
  pi : int array;
  eperm : int array;
  sigma : int array array;
}

type group = {
  elems : elem array;  (** closed under composition; [elems.(0)] = identity *)
  gens : elem list;  (** the admitted generators the closure grew from *)
  complete : bool;  (** [false] when closure hit its cap (group unusable) *)
}

val identity : n:int -> m:int -> domains:int array -> elem
val compose : elem -> elem -> elem
(** [compose g f] acts as [g] after [f]. *)

val invert : elem -> elem

val close : ?cap:int -> n:int -> m:int -> domains:int array -> elem list -> group
(** Subgroup generated by the given elements (breadth-first products,
    identity included).  Stops at [cap] elements (default 4096) with
    [complete = false]; a group that failed to close must not be used for
    quotienting — {!trivial} is the safe fallback. *)

val trivial : n:int -> m:int -> domains:int array -> group
val order : group -> int

val apply : elem -> int array -> int array
(** [apply g x] is [g · x] (fresh array).  All of [x] must be domain ids
    ([x.(p) < Array.length g.sigma.(p)]); check {!in_domain} first. *)

val in_domain : group -> int array -> bool

val canonical : group -> int array -> int array * int
(** [canonical grp x] is the lexicographically smallest element of the
    orbit of [x] plus the index [gi] into [grp.elems] of a witness with
    [apply grp.elems.(gi) x = canonical].  [x] must be within domain. *)

val canonical_into :
  group -> int array -> rep:int array -> cand:int array -> int
(** [canonical_into grp x ~rep ~cand] writes [fst (canonical grp x)] into
    [rep] and returns the same witness index, allocating nothing; [cand]
    is scratch.  [rep] and [cand] have the length of [x] and are distinct
    from it.  The witness is [0] exactly when [x] is its orbit's
    representative. *)

val map_mask : int array -> int -> int
(** [map_mask eperm mask] pushes a bitmask over edge ids through [eperm]. *)

val inverse_map_mask : int array -> int -> int
(** [inverse_map_mask eperm mask] pulls it back: bit [e] of the result is
    bit [eperm.(e)] of [mask]. *)

(** The scan memo of {!Engine}'s packed path: per process, the §2.2
    priority action of every closed-neighbourhood configuration a scan has
    met.

    A key packs into one [int] the canonical state ids and input modes of
    the closed neighbourhood N[p] = [{p}] ∪ [H.neighbors p]; the value is
    the action index the scan chose ([-1] = disabled).  The memo is a set
    of open-addressing tables over such keys: no polymorphic hash or
    compare, no closure per lookup.  It allocates nothing until {!key}
    first runs, and inserts nothing into a process's table once that
    table holds [cap] entries.

    What makes a stored answer sound is the caller's fill rule, not the
    memo: see {!Engine.Make.create}. *)

type t

val create : cap:int -> Snapcc_hypergraph.Hypergraph.t -> t
(** [cap] is the per-process entry bound. *)

val key : t -> ids:int array -> modes:int array -> int -> int
(** [key t ~ids ~modes p]: the key of [p]'s closed neighbourhood, from the
    per-process state ids ([>= 0]) and input modes ([0..3],
    {!Model.mode_of}).  Each member of N[p] gets an equal share of 62
    bits, two of them for its mode; [-1] when an id does not fit its
    share. *)

val find : t -> int -> int -> int
(** [find t p key]: the stored action index ([-1] = disabled), or [-2]
    when [key] is not stored.  Only after {!key}. *)

val add : t -> int -> int -> int -> unit
(** [add t p key action] stores an answer, unless [p]'s table is full. *)

val closed : t -> int -> int array
(** N[p], [p] first: the footprint of an answer {!find} served.  Only
    after {!key}. *)

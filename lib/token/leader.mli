(** Self-stabilizing leader election and BFS spanning tree
    (minimum identifier).

    Classic construction with the distance bound [dist < n] eliminating
    ghost identifiers.  Beyond the usual [lead]/[dist]/[par] triple, each
    process {e publishes} its ordered list of tree children: the token
    layer's Euler/DFS structure needs a process to know its position among
    its siblings, and siblings are not necessarily neighbors — so the
    parent publishes, children read. *)

type t = {
  lead : int;  (** claimed leader identifier *)
  dist : int;  (** claimed distance to the leader *)
  par : int;  (** parent vertex index, [-1] when claiming to be root *)
  childs : int array;  (** published ordered (ascending) tree children *)
}

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** The functions below read a configuration of composed states ['s]
    through [read], projecting the election's component with [get]. *)

val candidate :
  Snapcc_hypergraph.Hypergraph.t -> (int -> 's) -> ('s -> t) -> int -> int * int * int
(** The lexicographically minimal [(lead, dist, par)] claim available to a
    process: its own self-root claim or a neighbor's claim at distance +1
    (claims at distance [>= n] are ghosts and ignored). *)

val stable : Snapcc_hypergraph.Hypergraph.t -> (int -> t) -> bool
(** Global legitimacy: every process agrees with its candidate and
    publishes exactly its computed children — the terminal predicate of
    the election. *)

val is_root : Snapcc_hypergraph.Hypergraph.t -> t -> self:int -> bool
(** Local root claim: zero distance to one's own identifier. *)

val init : Snapcc_hypergraph.Hypergraph.t -> int -> t
(** The legitimate configuration: min-identifier root, BFS distances,
    minimum-index parents, consistent child lists. *)

val random_init : Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> t

val actions :
  Snapcc_hypergraph.Hypergraph.t -> get:('s -> t) -> set:('s -> t -> 's) ->
  's Snapcc_runtime.Model.action list
(** [LE-childs] then [LE-tree] (higher priority), both self-disabling, over
    a composed state ([set s t] replaces the election's component of [s]). *)

(** Standalone wrapper for testing stabilization in isolation. *)
module Algo : Snapcc_runtime.Model.ALGO with type state = t

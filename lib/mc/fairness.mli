(** Progress analysis under weak fairness (the paper's distributed weakly
    fair daemon, §2.2) on the explored in+out transition graph.

    A {e deadlock} is a terminal configuration in which some committee has
    all members waiting — the hypothesis of the progress property (§2.3)
    with no enabled action left to satisfy it.

    A {e livelock} is a strongly connected component of the transition
    graph such that (a) no internal transition convenes a meeting, (b) some
    configuration in it satisfies the progress hypothesis, and (c) the
    component admits a weakly fair infinite run — for every process, either
    some configuration of the component disables it, or some internal
    transition executes it (the two ways a run can visit it infinitely
    often without violating weak fairness; strong connectivity stitches
    the witnesses into one fair cycle).

    The analysis is exact for the explored graph: it must only be run on a
    {e complete} exploration ({!Explore.Make.complete}).  Components are
    found by Pearce's single-array search, one word per configuration. *)

type livelock = {
  witness : int;
      (** the configuration of the component satisfying the progress
          hypothesis that a depth-first search over the configurations
          in id order, taking successors in {!analyze}'s [succs] order,
          visits first *)
  scc_size : int;
  cycle : int list list;
      (** daemon selections of a convene-free cycle witness → … → witness *)
}

type verdict = {
  sccs : int;  (** strongly connected components *)
  largest_scc : int;
  nontrivial_sccs : int;  (** components with at least one internal edge *)
  deadlocks : int list;  (** configuration ids *)
  livelocks : livelock list;
}

val ok : verdict -> bool

val analyze :
  n:int ->
  n_configs:int ->
  succs:(int -> (int * int) list) ->
  convenes:(int -> int -> bool) ->
  enabled_mask:(int -> int) ->
  committee_waiting:(int -> bool) ->
  unit ->
  verdict
(** [succs cid] are the [(destination, selected-mask)] transitions under
    in+out; [convenes src dst] whether the transition convenes a meeting
    ({!Explore.Make.meets_mask} gains a bit). *)

(** The honest [TC] substrate: self-stabilizing DFS token circulation on
    arbitrary connected networks, in the style of the tree-wave (PIF)
    constructions the paper builds on [9,10,24–27].

    {!Leader} elects the minimum identifier and maintains a BFS spanning
    tree with published child lists; on that tree each process keeps a wave
    position ([-1] clean, [0] token held, [i] in child [i]'s subtree,
    [k+1] done).  The unique legitimate token is the end of the consistent
    parent-pointer chain from the root; a process engaged without its
    parent's blessing resets itself through an {e internal} action — so
    surplus tokens die independently of whether the legitimate holder ever
    releases, which is exactly Property 1's third requirement (see
    DESIGN.md for the deadlock that motivated this design). *)

type state = {
  le : Leader.t;
  pos : int;  (** wave position: -1 clean, 0 token, 1..k in child i, k+1 done *)
}

include Layer.S with type state := state

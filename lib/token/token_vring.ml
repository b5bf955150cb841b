(** Dijkstra's K-state token circulation on the {e virtual ring} of process
    indices [0 -> 1 -> ... -> n-1 -> 0].

    Self-stabilizing (K = n+1 >= #processes): from any configuration, once
    the master keeps incrementing, exactly one privilege survives.  The ring
    ignores the communication topology, so this layer is an {e oracle}: it
    violates locality unless the topology happens to contain that ring.  It
    exists to unit-test the CC layers in isolation from the tree-based
    substrate ({!Token_tree} is the honest implementation). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

type state = { v : int }

let name = "token-vring"
let pp_state ppf s = Format.fprintf ppf "v=%d" s.v
let equal_state (a : state) b = a.v = b.v
let k_of h = H.n h + 1

(* Legitimate initial configuration: all counters equal, so the master
   (process 0) holds the unique privilege. *)
let init _h _p = { v = 0 }
let random_init h rng _p = { v = Random.State.int rng (k_of h) }

let norm h x = ((x mod k_of h) + k_of h) mod k_of h
let value h read get p = norm h (get (read p) : state).v
let pred h p = (p + H.n h - 1) mod H.n h

let has_token h ~read ~get p =
  let vp = value h read get p and vq = value h read get (pred h p) in
  if p = 0 then vp = vq else vp <> vq

let release h ~read ~get p =
  if not (has_token h ~read ~get p) then get (read p)
  else if p = 0 then { v = norm h (value h read get p + 1) }
  else { v = value h read get (pred h p) }

let internal_actions _h ~get:_ ~set:_ : _ Model.action list = []

(* The full domain: one Dijkstra counter in [0 .. K-1]. *)
let domain h _p = List.init (k_of h) (fun v -> { v })

(* The virtual ring is index-anchored (master = process 0, fixed
   orientation), so no vertex permutation preserves it: [rename] keeps the
   counter and lets the admission pass reject the candidate.  What does
   survive is Dijkstra's counter gauge: shifting every counter by one
   (mod K) fixes all the [v_p = v_pred(p)] comparisons, hence the whole
   layer behaviour.  It generates the cyclic group Z_K. *)
let rename _h ~pi:_ _p (s : state) = s
let state_symmetries h =
  [ ("vring-shift", fun _p (s : state) -> { v = norm h (s.v + 1) }) ]

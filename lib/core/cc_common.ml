(** Vocabulary shared by the committee-coordination algorithms. *)

module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs

type status = Idle | Looking | Waiting | Done

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
     | Idle -> "idle"
     | Looking -> "looking"
     | Waiting -> "waiting"
     | Done -> "done")

let to_obs_status = function
  | Idle -> Obs.Idle
  | Looking -> Obs.Looking
  | Waiting -> Obs.Waiting
  | Done -> Obs.Done

(** Edge-selection strategy used where the paper writes
    "[Pp := ε such that ε ∈ ...]": the choice is a don't-care for
    correctness, but pluggable for the ablation benches. *)
module type PARAMS = sig
  val prefer : H.t -> int -> int -> bool
  val tag : string
end

(** Deterministic default: smallest edge id. *)
module Default_params : PARAMS = struct
  let prefer _h e' e = e' < e
  let tag = ""
end

(** Largest committee first: maximizes per-meeting participation. *)
module Widest_params : PARAMS = struct
  let prefer h e' e =
    let size x = Array.length (H.edge_members h x) in
    size e' > size e || (size e' = size e && e' < e)

  let tag = "[widest]"
end

(** Static committee priorities (the §7 future-work direction "enforcing
    priorities on convening committees"): among the candidates the paper
    leaves as a don't-care, always pick a maximum-weight one.  This is a
    {e hint}, not a guarantee — only the choices that were free in the
    first place are steered — but it measurably skews convening frequency
    toward heavy committees (see the priorities experiment). *)
module Weighted_params (W : sig
  val weight : int -> int
  (** weight of a committee (edge id); larger = preferred *)
end) : PARAMS = struct
  let prefer _h e' e =
    W.weight e' > W.weight e || (W.weight e' = W.weight e && e' < e)

  let tag = "[weighted]"
end

let points_at ptr e = match ptr with Some x -> x = e | None -> false

let mem (a : int array) x =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) <> x do incr i done;
  !i < Array.length a

(* ---- set kernels ----

   Each loop reads exactly the processes the literal set definition reads,
   so guard footprints — which the incremental engine, the exact tables
   and the lint statistics record — are those of the paper's macros. *)

let all_members h read e ok =
  let m = H.edge_members h e in
  let i = ref 0 in
  while !i < Array.length m && ok (read m.(!i)) e do incr i done;
  !i = Array.length m

let some_member h read e ok =
  let m = H.edge_members h e in
  let i = ref 0 in
  while !i < Array.length m && not (ok (read m.(!i)) e) do incr i done;
  !i < Array.length m

let some_edge h read p ok =
  let inc = H.incident h p in
  let i = ref 0 in
  while !i < Array.length inc && not (all_members h read inc.(!i) ok) do incr i done;
  !i < Array.length inc

let count_edges h read p ok =
  let inc = H.incident h p in
  let k = ref 0 in
  for i = 0 to Array.length inc - 1 do
    if all_members h read inc.(i) ok then incr k
  done;
  !k

let max_member h read p ok sel =
  let inc = H.incident h p in
  let best = ref (-1) in
  for i = 0 to Array.length inc - 1 do
    let e = inc.(i) in
    if all_members h read e ok then begin
      let m = H.edge_members h e in
      for j = 0 to Array.length m - 1 do
        let q = m.(j) in
        if sel (read q) e && (!best < 0 || H.id h q > H.id h !best) then best := q
      done
    end
  done;
  !best

let no_candidate () = invalid_arg "Cc_common.choose: no candidate committee"

let choose prefer h read p ok =
  let inc = H.incident h p in
  let best = ref (-1) in
  for i = 0 to Array.length inc - 1 do
    let e = inc.(i) in
    if all_members h read e ok && (!best < 0 || prefer h e !best) then best := e
  done;
  if !best < 0 then no_candidate ();
  !best

let pick prefer h (edges : int array) =
  if Array.length edges = 0 then no_candidate ();
  let best = ref edges.(0) in
  for i = 1 to Array.length edges - 1 do
    if prefer h edges.(i) !best then best := edges.(i)
  done;
  !best

type inputs = {
  request_in : int -> bool;
  request_out : int -> bool;
}

let no_inputs = { request_in = (fun _ -> false); request_out = (fun _ -> false) }
let always_in = { request_in = (fun _ -> true); request_out = (fun _ -> false) }

let input_modes =
  [| ("quiet", no_inputs);
     ("in", always_in);
     ("out", { request_in = (fun _ -> false); request_out = (fun _ -> true) });
     ("in+out", { request_in = (fun _ -> true); request_out = (fun _ -> true) });
  |]

type 'state ctx = {
  h : Snapcc_hypergraph.Hypergraph.t;
  inputs : inputs;
  read : int -> 'state;
  self : int;
}

type 'state action = {
  label : string;
  guard : 'state ctx -> bool;
  apply : 'state ctx -> 'state;
}

let priority actions ctx =
  let i = ref (Array.length actions - 1) in
  while !i >= 0 && not (actions.(!i).guard ctx) do decr i done;
  !i

module type ALGO = sig
  type state

  val name : string
  val pp_state : Format.formatter -> state -> unit
  val equal_state : state -> state -> bool
  val init : Snapcc_hypergraph.Hypergraph.t -> int -> state
  val random_init : Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> state
  val actions : Snapcc_hypergraph.Hypergraph.t -> state action list
  val observe : Snapcc_hypergraph.Hypergraph.t -> state array -> int -> Obs.t
end

type step_report = {
  step : int;
  selected : int list;
  executed : (int * string) list;
  neutralized : int list;
  round : int;
  terminal : bool;
}

(* The packed fast path is produced by [Snapcc_mc.Packed] (this library
   cannot depend on the checker, so the hooks are closures): an interner
   of canonical states into dense per-process ids, and the scan memo
   [Engine] keys on the ids of each closed neighbourhood. *)
type 'state packed = {
  pk_intern : int -> 'state -> int;
      (* canonicalize + intern; raises [Failure] past the interner's bound,
         which [Engine] treats as "fall back to closures" *)
  pk_memo : Memo.t;  (* shared by every engine built from these hooks *)
}

(* Per-process uniform input mode, indexing [input_modes]: bit 0 =
   [request_in self], bit 1 = [request_out self]. *)
let mode_of inputs p =
  (if inputs.request_in p then 1 else 0)
  lor if inputs.request_out p then 2 else 0

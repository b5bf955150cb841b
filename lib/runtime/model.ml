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
   cannot depend on the checker, so the hooks are closures).  A packed
   configuration is the vector of dense per-process state ids of the
   interned declared domains.  [Engine] reads only [pk_intern] and
   [pk_memo]; [Mp_engine] reads the exact tables through [pk_entry] with
   the [Snapcc_mc.Tables] conventions: [-1] = nothing enabled, [-2] =
   unavailable (no stored table for the process, or an escapee id in its
   support), [>= 0] = packed (action, changes, reads, successor id). *)
type 'state packed = {
  pk_entry : mode:int -> proc:int -> int array -> int;
  pk_intern : int -> 'state -> int;
      (* canonicalize + intern; raises [Failure] when escapees overflow the
         id headroom, which consumers treat as "fall back to closures" *)
  pk_support : int -> int array;
  pk_built : int -> bool;  (* stored table available for the process *)
  pk_memo : Memo.t;  (* shared by every engine built from these hooks *)
}

let entry_act e = e land 0x3f
let entry_succ e = e lsr 23

(* Per-process uniform input mode, indexing [input_modes]: bit 0 =
   [request_in self], bit 1 = [request_out self].  Sound for table lookups
   because the tables enumerate guards under uniform modes and the
   algorithms only consult the input predicates at [self] (checked by
   [ccsim lint]'s footprint analysis). *)
let mode_of inputs p =
  (if inputs.request_in p then 1 else 0)
  lor if inputs.request_out p then 2 else 0

(* The packed-configuration engine front end: builds the exact
   guard/footprint tables of a system and repackages them, with the
   interner they are keyed by and an empty scan memo, as the
   engine-agnostic [Model.packed] closure hooks that [lib/runtime] and
   [lib/mp] consume (those libraries cannot depend on the checker, so the
   functor boundary is erased here). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Memo = Snapcc_runtime.Memo

(* The runtime duplicates the packed-entry field decoders (it cannot see
   [Tables]); pin the two encodings against drift. *)
let () =
  let sample = 0b1010110_0101010101010101_1_101010 in
  assert (Model.entry_act sample = Tables.entry_act sample);
  assert (Model.entry_succ sample = Tables.entry_succ sample)

let startup_bits = 20
let startup_cap = 1 lsl startup_bits

module Make (Sys : System.S) = struct
  module Tb = Tables.Make (Sys)
  module Enc = Encode.Make (Sys)

  (* [tb = None]: interner-only, for a topology the tables cannot pack.
     That interner enumerates no domain (a coordinator's domain grows
     exponentially in n) and holds at most [startup_cap] states per
     process. *)
  type t = { h : H.t; enc : Enc.t; tb : Tb.t option }

  let build ?verify ?cap ?store_cap h =
    let tb = Tb.build ?verify ?cap ?store_cap h in
    { h; enc = Tb.enc tb; tb = Some tb }

  let try_build h =
    match build ~cap:startup_cap h with
    | pk -> pk
    | exception Failure _ ->
      { h; enc = Enc.on_demand ~width:startup_bits h; tb = None }

  let has_tables t = Option.is_some t.tb

  let stored t p =
    match t.tb with
    | Some tb -> ( match Tb.status tb p with `Built -> true | _ -> false)
    | None -> false

  let built t = match t.tb with Some tb -> Tb.built tb | None -> false

  let coverage t =
    let n = H.n t.h in
    let b = ref 0 in
    for p = 0 to n - 1 do
      if stored t p then incr b
    done;
    float_of_int !b /. float_of_int (max 1 n)

  let hooks t : Sys.state Model.packed =
    { Model.pk_entry =
        (fun ~mode ~proc cfg ->
          match t.tb with Some tb -> Tb.entry tb ~mode ~proc cfg | None -> -2);
      pk_intern = (fun p s -> Enc.intern t.enc p s);
      pk_support =
        (fun p -> match t.tb with Some tb -> Tb.support tb p | None -> [| p |]);
      pk_built = stored t;
      pk_memo = Memo.create ~cap:startup_cap t.h }
end

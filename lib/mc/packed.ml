(* The packed engine's hooks: an interner of canonical states that
   enumerates no declared domain, and an empty scan memo, packaged as the
   engine-agnostic [Model.packed] closures [lib/runtime] consumes (that
   library cannot depend on the checker, so the functor boundary is
   erased here). *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Memo = Snapcc_runtime.Memo

let startup_cap = 1 lsl 20

module Make (Sys : System.S) = struct
  module Enc = Encode.Make (Sys)

  type t = { h : H.t; enc : Enc.t; cap : int }

  (* The interner holds [2^width >= cap] states per process. *)
  let build ?(cap = startup_cap) h =
    { h; enc = Enc.on_demand ~width:(Bitpack.width (max 0 (cap - 1))) h; cap }

  let coverage _ = 0.

  let hooks t : Sys.state Model.packed =
    { Model.pk_intern = (fun p s -> Enc.intern t.enc p s);
      pk_memo = Memo.create ~cap:t.cap t.h }
end

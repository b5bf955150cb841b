module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model

module Make (A : Snapcc_runtime.Model.ALGO) = struct
  type t = {
    h : H.t;
    self : int;
    mutable core : A.state;
    cache : A.state array;  (* cache.(i): last received from i-th neighbor *)
    actions : A.state Model.action array;
  }

  let create h ~self ~core ~cache =
    if Array.length cache <> H.graph_degree h self then
      invalid_arg "Mp_view.create: cache size must equal the graph degree";
    { h; self; core; cache; actions = Array.of_list (A.actions h) }

  let core t = t.core
  let set_core t s = t.core <- s
  let cache t i = t.cache.(i)
  let refresh t ~slot s = t.cache.(slot) <- s
  let degree t = Array.length t.cache

  (* position of vertex [q] in [self]'s sorted neighbor array *)
  let slot t q =
    let nbrs = H.neighbors t.h t.self in
    let rec find i =
      if i >= Array.length nbrs then
        invalid_arg
          (Printf.sprintf "mp: %d is not a neighbor of %d" q t.self)
      else if nbrs.(i) = q then i
      else find (i + 1)
    in
    find 0

  let read t q = if q = t.self then t.core else t.cache.(slot t q)

  let activate t ~inputs =
    let ctx = { Model.h = t.h; inputs; read = read t; self = t.self } in
    match Model.priority t.actions ctx with
    | -1 -> None
    | i ->
      t.core <- t.actions.(i).Model.apply ctx;
      Some t.actions.(i).Model.label
end

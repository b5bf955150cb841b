module H = Snapcc_hypergraph.Hypergraph

(* One process's answers: open addressing with linear probing over
   [slots], the key at [2i] ([-1] = empty; keys are never negative) and
   the action index at [2i + 1].  [slots] stays empty until the first
   answer is stored, and doubles before it gets more than half full. *)
type table = {
  closed : int array;  (* N[p], p first *)
  mutable slots : int array;
  mutable size : int;
}

type t = {
  h : H.t;
  cap : int;
  mutable tables : table array;  (* [||] until the first [key] *)
}

let create ~cap h = { h; cap; tables = [||] }

let init t =
  t.tables <-
    Array.init (H.n t.h) (fun p ->
        { closed = Array.append [| p |] (H.neighbors t.h p); slots = [||]; size = 0 })

(* Each member of N[p] gets an equal share of the key's 62 bits: two for
   its input mode, the rest for its id. *)
let key t ~ids ~modes p =
  if Array.length t.tables = 0 then init t;
  let nb = H.neighbors t.h p in
  let w = 62 / (Array.length nb + 1) in
  let lim = if w < 3 then 0 else 1 lsl (w - 2) in
  if ids.(p) >= lim then -1
  else begin
    let k = ref ((ids.(p) lsl 2) lor modes.(p)) in
    let j = ref 0 in
    while !k >= 0 && !j < Array.length nb do
      let q = nb.(!j) in
      k := if ids.(q) < lim then (!k lsl w) lor (ids.(q) lsl 2) lor modes.(q) else -1;
      incr j
    done;
    !k
  end

(* Multiplicative hashing, with the high bits folded down before the
   multiplication (so the first member of N[p], at the top of the key,
   reaches every slot bit) and after it onto the low ones the mask
   keeps. *)
let hash key mask =
  let x = (key lxor (key lsr 31)) * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 29)) land mask

(* The slot holding [key], or the empty one where it belongs. *)
let slot slots key =
  let mask = (Array.length slots / 2) - 1 in
  let i = ref (hash key mask) in
  while
    let k = slots.(2 * !i) in
    k <> key && k >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let find t p key =
  let slots = t.tables.(p).slots in
  if Array.length slots = 0 then -2
  else
    let i = slot slots key in
    if slots.(2 * i) = key then slots.((2 * i) + 1) else -2

let put slots i key action =
  slots.(2 * i) <- key;
  slots.((2 * i) + 1) <- action

let add t p key action =
  let tb = t.tables.(p) in
  if tb.size < t.cap then begin
    if 4 * (tb.size + 1) > Array.length tb.slots then begin
      let old = tb.slots in
      tb.slots <- Array.make (max 128 (2 * Array.length old)) (-1);
      for i = 0 to (Array.length old / 2) - 1 do
        let k = old.(2 * i) in
        if k >= 0 then put tb.slots (slot tb.slots k) k old.((2 * i) + 1)
      done
    end;
    let i = slot tb.slots key in
    if tb.slots.(2 * i) < 0 then tb.size <- tb.size + 1;
    put tb.slots i key action
  end

let closed t p = t.tables.(p).closed

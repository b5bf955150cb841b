(* Span store of the traced runs.

   Spans live in arrays preallocated for the whole run and are reduced
   only when it ends, so recording one costs two counter reads and a few
   array stores: no allocation, no I/O.  Consecutive spans share their
   boundary ([lap]): the end of one span is the start of the next, so the
   child spans of a step tile it and the step's self time is only the
   loop's own glue.  Self time = span duration minus the durations of its
   children; allocation is counted the same way, in minor-heap words. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type t = {
  names : string array;
  name : int array;
  parent : int array;
  t0 : int array;
  t1 : int array;
  words : int array;
  mutable len : int;
  mutable last_c : int;
  mutable last_w : int;
}

let create ~capacity names =
  let z () = Array.make capacity 0 in
  { names; name = z (); parent = z (); t0 = z (); t1 = z (); words = z ();
    len = 0; last_c = 0; last_w = 0 }

let id t name =
  let rec go i =
    if i = Array.length t.names then invalid_arg ("Spans.id: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let push t ~name ~parent ~c0 ~c1 ~w =
  let i = t.len in
  if i = Array.length t.name then failwith "Spans: capacity exhausted";
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.t0.(i) <- c0;
  t.t1.(i) <- c1;
  t.words.(i) <- w;
  t.len <- i + 1;
  i

(* Start a boundary chain here (nothing is recorded). *)
let mark t =
  t.last_c <- now ();
  t.last_w <- minor_words ()

(* Record the span from the previous boundary to now. *)
let lap t ~name ~parent =
  let c = now () and w = minor_words () in
  ignore (push t ~name ~parent ~c0:t.last_c ~c1:c ~w:(w - t.last_w));
  t.last_c <- c;
  t.last_w <- w

(* A parent span: opened at a fresh boundary, closed at the last lap. *)
let open_ t ~name =
  mark t;
  push t ~name ~parent:(-1) ~c0:t.last_c ~c1:t.last_c ~w:t.last_w

let close t i =
  t.t1.(i) <- t.last_c;
  t.words.(i) <- t.last_w - t.words.(i)

type agg = { count : int; self_ns : int; self_words : int }

(* Per name: number of spans, summed self time and self allocation. *)
let aggregate t =
  let child_ns = Array.make t.len 0 and child_w = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.t1.(i) - t.t0.(i));
      child_w.(p) <- child_w.(p) + t.words.(i)
    end
  done;
  let k = Array.length t.names in
  let count = Array.make k 0 and ns = Array.make k 0 and w = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    count.(n) <- count.(n) + 1;
    ns.(n) <- ns.(n) + (t.t1.(i) - t.t0.(i) - child_ns.(i));
    w.(n) <- w.(n) + (t.words.(i) - child_w.(i))
  done;
  Array.to_list
    (Array.mapi
       (fun n name -> (name, { count = count.(n); self_ns = ns.(n); self_words = w.(n) }))
       t.names)

let mean_ns agg name =
  let a = List.assoc name agg in
  float_of_int a.self_ns /. float_of_int a.count

let mean_words agg name =
  let a = List.assoc name agg in
  float_of_int a.self_words /. float_of_int a.count

(* All durations of one name, in recording order (for percentiles). *)
let durations t name =
  let n = id t name in
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.name.(i) = n then acc := float_of_int (t.t1.(i) - t.t0.(i)) :: !acc
  done;
  Array.of_list !acc

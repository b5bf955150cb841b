(* Order statistics of the benchmark's reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (its default 'exclusive'
   method), so the spreads printed here are the ones an outside reader
   computes from the same values. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(* Nearest-rank percentile (the semantics of
   [Snapcc_analysis.Metrics.percentile]), reported only when at least ten
   samples lie beyond it: a tail estimate resting on fewer is noise. *)
let percentile q xs =
  let n = Array.length xs in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  if n - rank < 10 then None else Some (sorted xs).(rank - 1)

(* Least-squares slope of log y against log x: the exponent of a power
   law y ~ x^k fitted through the points. *)
let loglog_slope pts =
  let n = float_of_int (List.length pts) in
  if n < 2. then invalid_arg "Stats.loglog_slope: needs two points";
  let lx = List.map (fun (x, _) -> log x) pts in
  let ly = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0. l /. n in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. lx ly in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0. lx in
  sxy /. sxx

(* The contiguous index slices [Snapcc_smc.Pool] hands its workers: the
   first [count mod workers] slices take one extra index. *)
let slices ~workers ~count =
  let workers = max 1 (min workers count) in
  let base = count / workers and rem = count mod workers in
  Array.init workers (fun w -> ((w * base) + min w rem, base + if w < rem then 1 else 0))

(* Slowest slice over the mean slice, given each index's cost: 1 is a
   perfectly balanced pool. *)
let slice_imbalance ~workers costs =
  let sums =
    Array.map
      (fun (lo, len) -> Array.fold_left ( +. ) 0. (Array.sub costs lo len))
      (slices ~workers ~count:(Array.length costs))
  in
  let mean = Array.fold_left ( +. ) 0. sums /. float_of_int (Array.length sums) in
  Array.fold_left max neg_infinity sums /. mean

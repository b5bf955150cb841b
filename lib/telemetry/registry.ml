type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = {
  mutable samples : int array;
  mutable len : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16 }

let find_or_add tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add tbl name v;
    v

let counter t name = find_or_add t.counters name (fun () -> { count = 0 })
let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let gauge t name = find_or_add t.gauges name (fun () -> { value = 0. })
let set_gauge g v = g.value <- v
let gauge_value g = g.value

let histogram t name =
  find_or_add t.histograms name (fun () -> { samples = Array.make 16 0; len = 0 })

let observe h v =
  if h.len = Array.length h.samples then begin
    let bigger = Array.make (2 * h.len) 0 in
    Array.blit h.samples 0 bigger 0 h.len;
    h.samples <- bigger
  end;
  h.samples.(h.len) <- v;
  h.len <- h.len + 1

let hist_count h = h.len
let hist_values h = Array.to_list (Array.sub h.samples 0 h.len)

let nearest_rank_sorted q sorted =
  let len = Array.length sorted in
  if len = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int len)) in
    sorted.(max 0 (min (len - 1) (rank - 1)))

let nearest_rank q samples =
  Array.sort Int.compare samples;
  nearest_rank_sorted q samples

let percentile q h = nearest_rank q (Array.sub h.samples 0 h.len)

(* The one definition of the delivery-latency histogram edges (µs, upper
   bounds, overflow last): the net summary, `ccsim stats`, bench and the
   Prometheus exposition all bucketize against this array. *)
let latency_buckets_us = [| 50; 100; 250; 500; 1_000; 2_500; 5_000; 10_000; max_int |]

let bucket_label i =
  if latency_buckets_us.(i) = max_int then
    Printf.sprintf ">%dus" latency_buckets_us.(Array.length latency_buckets_us - 2)
  else Printf.sprintf "<=%dus" latency_buckets_us.(i)

let bucket_counts samples =
  let counts = Array.make (Array.length latency_buckets_us) 0 in
  List.iter
    (fun us ->
      let i = ref 0 in
      while us > latency_buckets_us.(!i) do i := !i + 1 done;
      counts.(!i) <- counts.(!i) + 1)
    samples;
  Array.to_list (Array.mapi (fun i c -> (bucket_label i, c)) counts)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let hist_json h =
    let vals = hist_values h in
    let sum = List.fold_left ( + ) 0 vals in
    Json.Obj
      [ ("count", Json.Int h.len);
        ("min",
         Json.Int (match vals with [] -> 0 | l -> List.fold_left min max_int l));
        ("max",
         Json.Int (match vals with [] -> 0 | l -> List.fold_left max min_int l));
        ("mean",
         Json.Float
           (if h.len = 0 then 0. else float_of_int sum /. float_of_int h.len));
        ("p50", Json.Int (percentile 0.50 h));
        ("p90", Json.Int (percentile 0.90 h));
        ("p95", Json.Int (percentile 0.95 h));
        ("p99", Json.Int (percentile 0.99 h)) ]
  in
  Json.Obj
    [ ("counters",
       Json.Obj
         (List.map
            (fun (k, c) -> (k, Json.Int c.count))
            (sorted_bindings t.counters)));
      ("gauges",
       Json.Obj
         (List.map
            (fun (k, g) -> (k, Json.Float g.value))
            (sorted_bindings t.gauges)));
      ("histograms",
       Json.Obj
         (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings t.histograms)))
    ]

(* Prometheus text exposition (version 0.0.4).  Histograms render as
   summaries — the registry keeps raw samples, so quantiles are exact
   nearest-rank, not bucket-interpolated. *)
let prom_name prefix k =
  let b = Bytes.of_string (prefix ^ k) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let to_prometheus ?(prefix = "snapcc_") t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (k, c) ->
      let name = prom_name prefix k in
      line "# TYPE %s counter" name;
      line "%s %d" name c.count)
    (sorted_bindings t.counters);
  List.iter
    (fun (k, g) ->
      let name = prom_name prefix k in
      line "# TYPE %s gauge" name;
      line "%s %.6g" name g.value)
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      let name = prom_name prefix k in
      line "# TYPE %s summary" name;
      List.iter
        (fun q -> line "%s{quantile=\"%.2g\"} %d" name q (percentile q h))
        [ 0.5; 0.9; 0.95; 0.99 ];
      line "%s_sum %d" name (List.fold_left ( + ) 0 (hist_values h));
      line "%s_count %d" name h.len)
    (sorted_bindings t.histograms);
  Buffer.contents buf

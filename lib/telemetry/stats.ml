type meta = {
  algo : string;
  daemon : string;
  workload : string;
  seed : int;
  n : int;
  m : int;
}

type summary = {
  steps : int;
  rounds : int;
  convenes : int;
  terminations : int;
  actions : int;
  mean_concurrency : float;
  max_concurrency : int;
  waits_completed : int;
  wait_mean : float;
  wait_p50 : int;
  wait_p90 : int;
  wait_p95 : int;
  wait_max : int;
  violations : int;
  faults : int;
  token_handoffs : int;
  latency_histogram : (string * int) list;
  outcome : string option;
}

(* The online fold: every counter the summary needs, updated per event, so
   a run's summary never requires its event stream to be kept.  Served
   waits go to a registry histogram (one unboxed word each), whose
   nearest-rank percentiles match [Snapcc_analysis.Metrics.percentile]. *)
type t = {
  mutable meta : meta option;
  mutable step_events : int;
  mutable max_round : int;
  mutable convenes : int;
  mutable terminations : int;
  mutable actions : int;
  mutable concurrency_sum : int;
  mutable max_concurrency : int;
  waits : Registry.histogram;
  mutable wait_sum : int;
  mutable violations : int;
  mutable faults : int;
  mutable tokens : int;
  mutable rev_latencies : int list;
  mutable run_end : (string * int * int) option;
}

let create () =
  { meta = None; step_events = 0; max_round = 0; convenes = 0;
    terminations = 0; actions = 0; concurrency_sum = 0; max_concurrency = 0;
    waits = Registry.histogram (Registry.create ()) "wait_steps";
    wait_sum = 0; violations = 0; faults = 0; tokens = 0;
    rev_latencies = []; run_end = None }

let add t (ev : Event.t) =
  match ev with
  | Event.Run_start { algo; daemon; workload; seed; n; m; topo = _ } ->
    if t.meta = None then t.meta <- Some { algo; daemon; workload; seed; n; m }
  | Event.Step { round; meetings; _ } ->
    t.step_events <- t.step_events + 1;
    if round > t.max_round then t.max_round <- round;
    let k = List.length meetings in
    t.concurrency_sum <- t.concurrency_sum + k;
    if k > t.max_concurrency then t.max_concurrency <- k
  | Event.Action _ -> t.actions <- t.actions + 1
  | Event.Convene _ -> t.convenes <- t.convenes + 1
  | Event.Terminate _ -> t.terminations <- t.terminations + 1
  | Event.Wait_open _ -> ()
  | Event.Wait_close { waited_steps; _ } ->
    Registry.observe t.waits waited_steps;
    t.wait_sum <- t.wait_sum + waited_steps
  | Event.Verdict _ -> t.violations <- t.violations + 1
  | Event.Fault _ -> t.faults <- t.faults + 1
  | Event.Token_handoff _ -> t.tokens <- t.tokens + 1
  | Event.Net_delivered { latency_us; _ } ->
    t.rev_latencies <- latency_us :: t.rev_latencies
  | Event.Recover _ | Event.Mc_frontier _ | Event.Mp_activated _
  | Event.Mp_delivered _ | Event.Net_sent _ | Event.Net_dropped _
  | Event.Clock _ | Event.Smc_trial _ ->
    ()
  | Event.Run_end { outcome; steps; rounds } ->
    t.run_end <- Some (outcome, steps, rounds)

let sink t = Sink.custom ~emit:(fun (s : Event.stamped) -> add t s.ev) ~close:ignore

let result t =
  let served = Registry.hist_count t.waits in
  let steps, rounds, outcome =
    match t.run_end with
    | Some (outcome, steps, rounds) -> (steps, rounds, Some outcome)
    | None -> (t.step_events, t.max_round, None)
  in
  ( t.meta,
    {
      steps;
      rounds;
      convenes = t.convenes;
      terminations = t.terminations;
      actions = t.actions;
      mean_concurrency =
        (if t.step_events = 0 then 0.
         else float_of_int t.concurrency_sum /. float_of_int t.step_events);
      max_concurrency = t.max_concurrency;
      waits_completed = served;
      wait_mean =
        (if served = 0 then 0.
         else float_of_int t.wait_sum /. float_of_int served);
      wait_p50 = Registry.percentile 0.50 t.waits;
      wait_p90 = Registry.percentile 0.90 t.waits;
      wait_p95 = Registry.percentile 0.95 t.waits;
      wait_max = max 0 (Registry.percentile 1.0 t.waits);
      violations = t.violations;
      faults = t.faults;
      token_handoffs = t.tokens;
      latency_histogram =
        (if t.rev_latencies = [] then []
         else Registry.bucket_counts (List.rev t.rev_latencies));
      outcome;
    } )

let of_events events =
  let t = create () in
  List.iter (add t) events;
  result t

let to_json ?meta s =
  let meta_fields =
    match meta with
    | None -> []
    | Some m ->
      [ ( "meta",
          Json.Obj
            [ ("algo", Json.String m.algo);
              ("daemon", Json.String m.daemon);
              ("workload", Json.String m.workload);
              ("seed", Json.Int m.seed);
              ("n", Json.Int m.n);
              ("m", Json.Int m.m) ] ) ]
  in
  (* the latency histogram appears only when the trace carried deliveries,
     so summaries of non-networked runs are byte-identical to before *)
  let latency_fields =
    match s.latency_histogram with
    | [] -> []
    | buckets ->
      [ ( "latency_histogram",
          Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) buckets) ) ]
  in
  Json.Obj
    (meta_fields
    @ [ ( "summary",
          Json.Obj
            ([ ("steps", Json.Int s.steps);
               ("rounds", Json.Int s.rounds);
               ("convenes", Json.Int s.convenes);
               ("terminations", Json.Int s.terminations);
               ("actions", Json.Int s.actions);
               ("mean_concurrency", Json.Float s.mean_concurrency);
               ("max_concurrency", Json.Int s.max_concurrency);
               ( "waits",
                 Json.Obj
                   [ ("completed", Json.Int s.waits_completed);
                     ("mean_steps", Json.Float s.wait_mean);
                     ("p50_steps", Json.Int s.wait_p50);
                     ("p90_steps", Json.Int s.wait_p90);
                     ("p95_steps", Json.Int s.wait_p95);
                     ("max_steps", Json.Int s.wait_max) ] );
               ("violations", Json.Int s.violations);
               ("faults", Json.Int s.faults);
               ("token_handoffs", Json.Int s.token_handoffs) ]
            @ latency_fields
            @ [ ( "outcome",
                  match s.outcome with
                  | Some o -> Json.String o
                  | None -> Json.Null ) ]) ) ])

let events_of_jsonl lines =
  let rec parse acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then parse acc (lineno + 1) rest
      else (
        match Json.of_string trimmed with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
          match Event.of_json j with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok ev -> parse (ev :: acc) (lineno + 1) rest))
  in
  parse [] 1 lines

let of_jsonl lines = Result.map of_events (events_of_jsonl lines)

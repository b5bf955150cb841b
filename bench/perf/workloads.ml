(* The five workloads: for each, the set-up call, one rep at the fixed
   horizon, the extra gate runs, and the traced runs that break the cost
   down by layer.  Every function here runs inside its own child process
   (see perf.ml) and returns the JSON record that process prints. *)

module Json = Snapcc_telemetry.Json
module Tele = Snapcc_telemetry
module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Fairness = Snapcc_mc.Fairness
module Smc = Snapcc_smc
module Net = Snapcc_net
module S = Subjects

(* Fixed horizons.  A rep lasts about 0.4 s so that a run holds a few
   dozen of them and their median rides out the multi-second slow phases
   of a shared host.  The traced horizons are sized so that one traced
   run, every layer group included, stays well under 30 s; the smc and
   net ones keep at least ten samples beyond each reported p99. *)
let run_steps = 5_000
let run_trace_steps = 8_000
let mp_steps = 80_000
let mp_gate_steps = 20_000
let mp_trace_steps = 30_000
let smc_trials = 800
let smc_gate_trials = 256
let smc_trace_trials = 1_000
let smc_scan_trials = 200
let net_steps = 16_000
let net_trace_steps = 20_000
let scale_steps = [ (5, 15_000); (9, 8_000); (24, 3_000); (64, 1_000) ]

(* Set-up calls timed in every rep's process, so that the set-up samples
   of a run are spread over it like its reps. *)
let setup_calls = 5

let names = [ "run-ring24"; "mp-ring9"; "check-triangle3"; "smc-triangle3"; "net-ring5" ]

(* check is exhaustive: it takes no seed. *)
let seeded w = w <> "check-triangle3"

let secs_since c0 = float_of_int (Spans.now () - c0) /. 1e9

let timed f =
  let c0 = Spans.now () in
  let r = f () in
  (r, secs_since c0)

(* Major-heap peak of this process, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let rep_record ~ops ~wall fields =
  Json.Obj
    ([ ("ops", Json.Int ops); ("wall_s", Json.Float wall);
       ("heap_mb", Json.Float (peak_heap_mb ())) ]
    @ fields)

(* A per-layer metric as the trace records carry it. *)
let metric name unit v =
  Json.Obj [ ("name", Json.String name); ("unit", Json.String unit); ("value", Json.Float v) ]

let gates_field gates = ("gates", Json.List (List.map Gates.to_json gates))

(* A ratio of counts; a zero base means the layer never ran, which no
   number should hide. *)
let ratio what a b =
  if b = 0 then failwith (what ^ ": nothing counted") else float_of_int a /. float_of_int b

(* ---------- run-ring24: the shared-memory driver ---------- *)

let ring24 = S.ring 24

let run_call ~seed ~steps =
  S.Run.run ~seed ~daemon:(Daemon.random_subset ())
    ~workload:(Workload.always_requesting ring24) ~steps ring24

let run_fields (r : Snapcc_experiments.Driver.result) =
  [ ("violations", Json.Int (List.length r.violations));
    ("ledger", Json.String (digest r.convened));
    ("steps", Json.Int r.steps) ]

let run_rep ?(steps = run_steps) ~seed () =
  let r, wall = timed (fun () -> run_call ~seed ~steps) in
  rep_record ~ops:(List.length r.convened) ~wall (run_fields r)

let run_setup ~seed () = ignore (run_call ~seed ~steps:1)

(* [Driver.Make.run]'s call sequence (no faults, trace or telemetry),
   with a span around each layer call.  Before each engine step, probes
   repeat work the step is about to do on the same inputs — the guard
   scan ([E.enabled], which [E.step] runs twice) and the daemon draw on a
   copy of the engine's rng — so their cost is measured without touching
   the run: the ledger must match the untraced run's. *)
let run_traced ~seed =
  let module E = S.Run.E in
  let h = ring24 and steps = run_trace_steps in
  let daemon = Daemon.random_subset () in
  let workload = Workload.always_requesting h in
  let sp =
    Spans.create ~capacity:((10 * steps) + 16)
      [| "step"; "workload"; "probe.scan"; "probe.rng"; "probe.select";
         "engine.step"; "obs"; "spec"; "metrics" |]
  in
  let id = Spans.id sp in
  let s_step = id "step" and s_wl = id "workload" and s_scan = id "probe.scan"
  and s_rng = id "probe.rng" and s_sel = id "probe.select"
  and s_eng = id "engine.step" and s_obs = id "obs" and s_spec = id "spec"
  and s_met = id "metrics" in
  let eng = E.create ~seed ~init:`Canonical ~daemon h in
  let initial = E.obs eng in
  let spec = Spec.create h ~initial in
  let metrics = Metrics.create h ~initial in
  let before = ref initial and stutters = ref 0 in
  let c0 = Spans.now () in
  (try
     for _ = 1 to steps do
       let root = Spans.open_ sp ~name:s_step in
       let inputs = Workload.inputs workload !before in
       Spans.lap sp ~name:s_wl ~parent:root;
       let enabled = E.enabled eng ~inputs in
       Spans.lap sp ~name:s_scan ~parent:root;
       let rng = Random.State.copy (E.rng eng) in
       Spans.lap sp ~name:s_rng ~parent:root;
       ignore
         (Daemon.select daemon ~rng ~step:(E.steps_taken eng) ~enabled
            ~continuously_enabled:(fun _ -> 0));
       Spans.lap sp ~name:s_sel ~parent:root;
       let report = E.step eng ~inputs in
       Spans.lap sp ~name:s_eng ~parent:root;
       if report.Model.terminal then begin
         incr stutters;
         Workload.observe workload ~step:(E.steps_taken eng) !before;
         Spans.lap sp ~name:s_wl ~parent:root;
         Spans.close sp root;
         if !stutters > 1000 then raise Exit
       end
       else begin
         stutters := 0;
         let after = E.obs eng in
         Spans.lap sp ~name:s_obs ~parent:root;
         Spec.on_step spec ~step:report.Model.step
           ~request_out:inputs.Model.request_out ~before:!before ~after;
         Spans.lap sp ~name:s_spec ~parent:root;
         Metrics.on_step metrics ~step:report.Model.step ~round:report.Model.round
           ~before:!before ~after;
         Spans.lap sp ~name:s_met ~parent:root;
         Workload.observe workload ~step:report.Model.step after;
         Spans.lap sp ~name:s_wl ~parent:root;
         before := after;
         Spans.close sp root
       end
     done
   with Exit -> ());
  let wall_ns = Spans.now () - c0 in
  let agg = Spans.aggregate sp in
  let self_ns names = List.fold_left (fun acc n -> acc + (List.assoc n agg).Spans.self_ns) 0 names in
  let n_steps = float_of_int (List.assoc "step" agg).count in
  (* wall time of the run itself: the probes are extra work *)
  let wall_ns = wall_ns - self_ns [ "probe.scan"; "probe.rng"; "probe.select" ] in
  let per_step = float_of_int wall_ns /. n_steps in
  let share names = float_of_int (self_ns names) /. n_steps /. per_step in
  let scan = Spans.mean_ns agg "probe.scan" and step = Spans.mean_ns agg "engine.step" in
  let convened = Spec.convened spec in
  Json.Obj
    [ ("ops", Json.Int (List.length convened));
      ("violations", Json.Int (List.length (Spec.violations spec)));
      ("ledger", Json.String (digest convened));
      ("wall_s", Json.Float (float_of_int wall_ns /. 1e9));
      ("metrics",
       Json.List
         [ metric "engine.scan_ns" "ns" scan;
           metric "engine.scan_words" "words" (Spans.mean_words agg "probe.scan");
           metric "engine.step_ns" "ns" step;
           metric "engine.step_words" "words" (Spans.mean_words agg "engine.step");
           metric "engine.commit_ns" "ns" (step -. (2. *. scan));
           metric "daemon.select_ns" "ns" (Spans.mean_ns agg "probe.select");
           metric "run.scan_share" "ratio" (2. *. scan /. per_step);
           metric "run.monitor_share" "ratio" (share [ "spec"; "metrics" ]);
           metric "trace.coverage.run-ring24" "ratio"
             (share [ "workload"; "engine.step"; "obs"; "spec"; "metrics" ]) ]) ]

(* ---------- mp-ring9: the message-passing engine, `ccsim mp` loop ---------- *)

let ring9 = S.ring 9

(* Telemetry configurations: the workload runs [Jsonl] (the
   `--emit-trace` path into memory); the others are the rungs of the
   traced run's telemetry ladder. *)
type tele = Bare | Discard | Discard_vclock | Jsonl

(* The JSONL sink writes into a buffer reused every MiB: every byte is
   rendered and copied as a file write would, without the heap growing
   with the horizon. *)
let hub_of tele =
  let bytes = ref 0 in
  let hub =
    match tele with
    | Bare -> None
    | Discard | Discard_vclock ->
      let hub = Tele.Hub.create () in
      Tele.Hub.add_sink hub (Tele.Sink.custom ~emit:ignore ~close:ignore);
      Some hub
    | Jsonl ->
      let hub = Tele.Hub.create () in
      let buf = Buffer.create (1 lsl 20) in
      Tele.Hub.add_sink hub
        (Tele.Sink.jsonl (fun s ->
             bytes := !bytes + String.length s;
             if Buffer.length buf >= 1 lsl 20 then Buffer.clear buf;
             Buffer.add_string buf s));
      Some hub
  in
  (hub, bytes)

type mp_out = {
  mp_wall : float;  (** the step loop only *)
  mp_digest : string;
  mp_violations : int;
  mp_convened : int;
  mp_obs : Snapcc_runtime.Obs.t array;
  mp_delivered : int;
  mp_bytes : int;
  mp_profile : (string * int) list;
}

(* bin/ccsim.ml's mp loop.  [lap k] is called after each layer call with
   the layer's index in [mp_layers]; [root]/[close] bracket each step. *)
let mp_layers = [| "workload"; "mp.step"; "obs"; "spec"; "metrics" |]

let mp_run ?(lap = fun _ -> ()) ?(root = ignore) ?(close = ignore) ~tele ~packed
    ~seed ~steps h =
  let telemetry, bytes = hub_of tele in
  let emit ev = Option.iter (fun hub -> Tele.Hub.emit hub ev) telemetry in
  let eng =
    S.Mp.create ~seed ~init:`Canonical ~deliver_bias:S.deliver_bias
      ~vclock:(tele <> Discard) ?telemetry ?packed h
  in
  let spec = Spec.create ?telemetry h ~initial:(S.Mp.obs eng) in
  emit
    (Tele.Event.Run_start
       { algo = S.mp_algo_name; daemon = "mp-scheduler";
         workload = "always-requesting"; seed; n = H.n h; m = H.m h;
         topo = Snapcc_hypergraph.Hypergraph_io.to_string h });
  let metrics = Metrics.create ?telemetry h ~initial:(S.Mp.obs eng) in
  let workload = Workload.always_requesting h in
  let before = ref (S.Mp.obs eng) in
  let c0 = Spans.now () in
  for i = 0 to steps - 1 do
    root ();
    let inputs = Workload.inputs workload !before in
    lap 0;
    ignore (S.Mp.step eng ~inputs);
    lap 1;
    let after = S.Mp.obs eng in
    lap 2;
    Spec.on_step spec ~step:i ~request_out:inputs.Model.request_out
      ~before:!before ~after;
    lap 3;
    Metrics.on_step metrics ~step:i ~round:0 ~before:!before ~after;
    lap 4;
    Workload.observe workload ~step:i after;
    lap 0;
    before := after;
    close ()
  done;
  let mp_wall = secs_since c0 in
  emit (Tele.Event.Run_end { outcome = "steps_exhausted"; steps; rounds = 0 });
  Option.iter Tele.Hub.close telemetry;
  let convened = Spec.convened spec in
  let obs = S.Mp.obs eng in
  { mp_wall;
    mp_digest =
      digest
        (obs, convened, S.Mp.messages_sent eng, S.Mp.messages_delivered eng,
         List.length (Spec.violations spec));
    mp_violations = List.length (Spec.violations spec);
    mp_convened = List.length convened;
    mp_obs = obs;
    mp_delivered = S.Mp.messages_delivered eng;
    mp_bytes = !bytes;
    mp_profile = S.Mp.profile eng }

let mp_call ~seed ~steps =
  let hooks, coverage = S.mp_hooks ring9 in
  (mp_run ~tele:Jsonl ~packed:(Some hooks) ~seed ~steps ring9, coverage)

let mp_rep ~seed =
  let (o, coverage), wall = timed (fun () -> mp_call ~seed ~steps:mp_steps) in
  rep_record ~ops:mp_steps ~wall
    [ ("violations", Json.Int o.mp_violations);
      ("convened", Json.Int o.mp_convened);
      ("digest", Json.String o.mp_digest);
      ("table_coverage", Json.Float coverage);
      ("bytes", Json.Int o.mp_bytes) ]

let mp_setup ~seed () = ignore (mp_call ~seed ~steps:1)

(* The packed hooks must not change the execution. *)
let mp_gate ~seed =
  let hooks, _ = S.mp_hooks ring9 in
  let run packed = mp_run ~tele:Bare ~packed ~seed ~steps:mp_gate_steps ring9 in
  let p = run (Some hooks) and c = run None in
  Json.Obj
    [ gates_field
        [ Gates.make "mp packed = closure obs (20k steps)" (p.mp_obs = c.mp_obs)
            "final configuration";
          Gates.make "mp packed = closure messages_delivered (20k steps)"
            (p.mp_delivered = c.mp_delivered)
            (Printf.sprintf "%d vs %d" p.mp_delivered c.mp_delivered) ] ]

(* Untraced reference at the traced horizon. *)
let mp_ref ~seed =
  let hooks, _ = S.mp_hooks ring9 in
  let o = mp_run ~tele:Jsonl ~packed:(Some hooks) ~seed ~steps:mp_trace_steps ring9 in
  Json.Obj
    [ ("ops", Json.Int mp_trace_steps); ("violations", Json.Int o.mp_violations);
      ("digest", Json.String o.mp_digest); ("wall_s", Json.Float o.mp_wall) ]

let mp_traced_run ~tele ~packed ~seed ~steps =
  let sp = Spans.create ~capacity:((7 * steps) + 16) (Array.append [| "step" |] mp_layers) in
  let cur = ref (-1) in
  let o =
    mp_run ~tele ~packed ~seed ~steps ring9
      ~root:(fun () -> cur := Spans.open_ sp ~name:0)
      ~lap:(fun k -> Spans.lap sp ~name:(k + 1) ~parent:!cur)
      ~close:(fun () -> Spans.close sp !cur)
  in
  (o, Spans.aggregate sp)

let mp_trace ~seed =
  let hooks, _ = S.mp_hooks ring9 in
  let packed = Some hooks in
  (* telemetry ladder: whole untraced loops, rungs alternated three times,
     median per rung; a rung's cost is its difference to the one below *)
  let rungs = [| Bare; Discard; Discard_vclock; Jsonl |] in
  let walls = Array.make_matrix (Array.length rungs) 3 0. in
  let bytes = ref 0 in
  for k = 0 to 2 do
    Array.iteri
      (fun r tele ->
        let o = mp_run ~tele ~packed ~seed ~steps:mp_trace_steps ring9 in
        if tele = Jsonl then bytes := o.mp_bytes;
        walls.(r).(k) <- o.mp_wall)
      rungs
  done;
  let rung r = Stats.median walls.(r) *. 1e9 /. float_of_int mp_trace_steps in
  let _, bare_agg = mp_traced_run ~tele:Bare ~packed ~seed ~steps:mp_trace_steps in
  let o, agg = mp_traced_run ~tele:Jsonl ~packed ~seed ~steps:mp_trace_steps in
  let steps = float_of_int mp_trace_steps in
  let layers_ns =
    Array.fold_left (fun acc n -> acc + (List.assoc n agg).Spans.self_ns) 0 mp_layers
  in
  (* Base: every activation.  A process the tables do not cover falls
     back to closures without touching the hit/fallback counters. *)
  let hits = List.assoc "mp_pk_hits" o.mp_profile
  and activations = List.assoc "mp_activations" o.mp_profile in
  Json.Obj
    [ ("ops", Json.Int mp_trace_steps); ("violations", Json.Int o.mp_violations);
      ("digest", Json.String o.mp_digest); ("wall_s", Json.Float o.mp_wall);
      ("metrics",
       Json.List
         [ metric "mp.step_ns" "ns" (Spans.mean_ns bare_agg "mp.step");
           metric "mp.step_words" "words" (Spans.mean_words bare_agg "mp.step");
           metric "mp.pk_hit_ratio" "ratio" (ratio "mp activations" hits activations);
           metric "obs.project_ns" "ns" (Spans.mean_ns agg "obs");
           metric "obs.project_words" "words" (Spans.mean_words agg "obs");
           metric "spec.on_step_ns" "ns" (Spans.mean_ns agg "spec");
           metric "spec.on_step_words" "words" (Spans.mean_words agg "spec");
           metric "metrics.on_step_ns" "ns" (Spans.mean_ns agg "metrics");
           metric "metrics.on_step_words" "words" (Spans.mean_words agg "metrics");
           metric "workload.ns_per_step" "ns"
             (float_of_int (List.assoc "workload" agg).Spans.self_ns /. steps);
           metric "telemetry.hub_ns_per_step" "ns" (rung 1 -. rung 0);
           metric "telemetry.vclock_ns_per_step" "ns" (rung 2 -. rung 1);
           metric "telemetry.jsonl_ns_per_step" "ns" (rung 3 -. rung 2);
           metric "telemetry.bytes_per_step" "B" (float_of_int !bytes /. steps);
           metric "trace.coverage.mp-ring9" "ratio"
             (float_of_int layers_ns /. 1e9 /. o.mp_wall) ]) ]

(* ---------- check-triangle3: the exhaustive model checker ---------- *)

let check_tables () = S.Tables.build ~cap:S.check_table_cap S.triangle3

let check_explore tb =
  S.Explore.explore ~tables:tb ~max_configs:S.check_max_states ~stop_on_first:true
    S.triangle3

let check_analyze r =
  Fairness.analyze ~n:(H.n S.triangle3) ~n_configs:(S.Explore.n_configs r)
    ~succs:(S.Explore.succs_inout r) ~convenes:(S.Explore.convening r)
    ~enabled_mask:(S.Explore.enabled_inout r)
    ~committee_waiting:(S.Explore.committee_waiting r) ()

(* `ccsim check` runs the progress analysis only on a complete space. *)
let check_verdict tb =
  let r = check_explore tb in
  (r, if S.Explore.complete r then Some (check_analyze r) else None)

let check_fields (r, v) =
  let count f = match v with Some v -> List.length (f v) | None -> -1 in
  [ ("complete", Json.Bool (S.Explore.complete r));
    ("configs", Json.Int (S.Explore.n_configs r));
    ("transitions", Json.Int (S.Explore.n_transitions r));
    ("violations", Json.Int (List.length (S.Explore.violations r)));
    ("deadlocks", Json.Int (count (fun v -> v.Fairness.deadlocks)));
    ("livelocks", Json.Int (count (fun v -> v.Fairness.livelocks))) ]

(* Rep wall: exploration and progress analysis.  The table build before
   it is the workload's set-up; at seconds per build, the reps' own
   builds are the set-up samples. *)
let check_rep () =
  let tb, build_s = timed check_tables in
  let rv, wall = timed (fun () -> check_verdict tb) in
  rep_record ~ops:(S.Explore.n_configs (fst rv)) ~wall
    (check_fields rv @ [ ("setup_s", Json.List [ Json.Float build_s ]) ])

(* Timers around the two public calls only, so the traced run is the
   untraced one plus four clock reads: it has no untraced reference (one
   would add an exploration's seconds to the traced run) and is held to
   the expected verdict instead. *)
let check_trace () =
  let gc () = Gc.quick_stat () in
  let tb, build_s = timed check_tables in
  let g0 = gc () in
  let r, explore_s = timed (fun () -> check_explore tb) in
  let g1 = gc () in
  let v, fairness_s = timed (fun () -> check_analyze r) in
  let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let configs = S.Explore.n_configs r and transitions = S.Explore.n_transitions r in
  let fields = check_fields (r, Some v) in
  let verdict = Gates.check_rep (Json.Obj fields) in
  Json.Obj
    ([ ("ops", Json.Int configs); ("wall_s", Json.Float (explore_s +. fairness_s)) ]
    @ fields
    @ [ gates_field [ { verdict with name = "traced " ^ verdict.name } ];
        ("metrics",
         Json.List
           [ metric "tables.build_s" "s" build_s;
             metric "explore.s" "s" explore_s;
             metric "explore.ns_per_transition" "ns"
               (explore_s *. 1e9 /. float_of_int transitions);
             metric "explore.words_per_state" "words"
               ((allocated g1 -. allocated g0) /. float_of_int configs);
             metric "explore.major_gcs" "count"
               (float_of_int (g1.major_collections - g0.major_collections));
             metric "fairness.analyze_s" "s" fairness_s ]) ])

(* ---------- smc-triangle3: the statistical tier ---------- *)

let smc_report cfg =
  match Smc.Runner.run cfg with Ok r -> r | Error e -> failwith e

let smc_rep ~seed =
  let r, wall = timed (fun () -> smc_report (S.smc_cfg ~seed ~trials:smc_trials ~workers:2)) in
  rep_record ~ops:r.Smc.Report.trials ~wall
    [ ("violations", Json.Int r.violations);
      ("deadlock_hits", Json.Int r.deadlock.count);
      ("digest", Json.String (digest (Json.to_string (Smc.Report.to_json r)))) ]

let smc_setup ~seed () = ignore (smc_report (S.smc_cfg ~seed ~trials:2 ~workers:2))

(* The report may not depend on the worker count. *)
let smc_gate ~seed =
  let json workers =
    Json.to_string (Smc.Report.to_json (smc_report (S.smc_cfg ~seed ~trials:smc_gate_trials ~workers)))
  in
  let one = json 1 and two = json 2 in
  Json.Obj
    [ gates_field
        [ Gates.make "smc report workers 1 = workers 2 (256 trials)" (one = two)
            (digest one ^ " vs " ^ digest two) ] ]

(* What a list of trial records must reproduce. *)
let trial_fields records =
  [ ("violations", Json.Int (List.fold_left (fun a r -> a + r.Smc.Trial.violations) 0 records));
    ("deadlock_hits", Json.Int (List.length (List.filter (fun r -> r.Smc.Trial.deadlocked) records)));
    ("digest", Json.String (digest records)) ]

let smc_ref ~seed =
  let cfg = S.smc_cfg ~seed ~trials:smc_trace_trials ~workers:1 in
  let packed = S.smc_hooks cfg.topo in
  let records, wall =
    timed (fun () ->
        Smc.Pool.run ~workers:1 ~offset:0 ~count:smc_trace_trials (S.smc_trial ?packed cfg))
  in
  Json.Obj
    ([ ("ops", Json.Int smc_trace_trials); ("wall_s", Json.Float wall) ] @ trial_fields records)

(* The share of guard scans the packed tables serve, from [E.profile] of
   the engine smc's trials run on: the first trials' starts, daemons and
   workloads, stepped engine-only (no monitors) for the trial budget. *)
let smc_scan_hit_ratio (cfg : Smc.Runner.cfg) packed =
  let module E = S.Run_smc.E in
  let hits = ref 0 and scans = ref 0 in
  for trial = 0 to smc_scan_trials - 1 do
    let seed = Smc.Trial.derive ~seed:cfg.seed trial in
    let eng =
      E.create ~seed ~init:`Random ?packed ~daemon:(Smc.Trial.daemon_of cfg.daemon) cfg.topo
    in
    let workload = Smc.Trial.workload_of cfg.workload ~disc:cfg.disc ~seed cfg.topo in
    let obs = ref (E.obs eng) in
    for _ = 1 to cfg.budget do
      let inputs = Workload.inputs workload !obs in
      if not (E.step eng ~inputs).Model.terminal then obs := E.obs eng;
      Workload.observe workload ~step:(E.steps_taken eng) !obs
    done;
    let profile = E.profile eng in
    let h = List.assoc "engine_scan_hits" profile in
    hits := !hits + h;
    scans := !scans + h + List.assoc "engine_scan_fallbacks" profile
  done;
  ratio "packed guard scans" !hits !scans

let smc_trace ~seed =
  let cfg = S.smc_cfg ~seed ~trials:smc_trace_trials ~workers:2 in
  let packed = S.smc_hooks cfg.topo in
  let f = S.smc_trial ?packed cfg in
  let sp = Spans.create ~capacity:(smc_trace_trials + 1) [| "trial" |] in
  let c0 = Spans.now () in
  Spans.mark sp;
  let records =
    List.init smc_trace_trials (fun i ->
        let r = f i in
        Spans.lap sp ~name:0 ~parent:(-1);
        r)
  in
  let wall = secs_since c0 in
  let trial_ns = Spans.durations sp "trial" in
  let pool, pool_s =
    timed (fun () -> Smc.Pool.run ~workers:2 ~offset:0 ~count:smc_trace_trials f)
  in
  let build () =
    Smc.Report.build ~algo:cfg.algo ~topo:cfg.topo_name ~daemon:cfg.daemon
      ~workload:cfg.workload ~disc:cfg.disc ~budget:cfg.budget ~seed:cfg.seed
      ~confidence:cfg.confidence records
  in
  let build_s = Array.init 15 (fun _ -> snd (timed build)) in
  let pct q =
    match Stats.percentile q trial_ns with
    | Some ns -> ns /. 1e3
    | None -> failwith "smc trace: too few trials for the percentile"
  in
  Json.Obj
    ([ ("ops", Json.Int smc_trace_trials); ("wall_s", Json.Float wall) ]
    @ trial_fields records
    @ [ gates_field
          [ Gates.make "smc pool (2 workers) = sequential records"
              (digest pool = digest records)
              (Printf.sprintf "%d trials" smc_trace_trials) ];
      ("metrics",
       Json.List
         [ metric "engine.scan_hit_ratio" "ratio" (smc_scan_hit_ratio cfg packed);
           metric "trial.us_p50" "us" (pct 0.50);
           metric "trial.us_p99" "us" (pct 0.99);
           metric "trial.samples" "count" (float_of_int (Array.length trial_ns));
           metric "pool.efficiency" "ratio"
             (Array.fold_left ( +. ) 0. trial_ns /. 1e9 /. (2. *. pool_s));
           metric "pool.slice_imbalance" "ratio" (Stats.slice_imbalance ~workers:2 trial_ns);
           metric "report.build_ms" "ms" (Stats.median build_s *. 1e3) ]) ])

(* ---------- net-ring5: the networked runtime ---------- *)

let ring5 = S.ring 5

let net_call ~seed ~steps =
  match
    Net.Orchestrator.run ~mode:Net.Spawn.Fork
      ~workload:(Workload.always_requesting ring5) (S.net_cfg ~seed ~steps) ring5
  with
  | Ok r -> r
  | Error e -> failwith e

let net_fields (r : Net.Orchestrator.result) =
  [ ("violations", Json.Int (List.length r.violations));
    ("resyncs", Json.Int r.resyncs); ("sent", Json.Int r.sent);
    ("delivered", Json.Int r.delivered); ("dropped", Json.Int r.dropped);
    ("final_obs", Json.String (digest r.final_obs)) ]

let latencies (r : Net.Orchestrator.result) =
  Array.of_list (List.map float_of_int r.latencies_us)

let net_rep ?(steps = net_steps) ~seed () =
  let r, wall = timed (fun () -> net_call ~seed ~steps) in
  let pct q = match Stats.percentile q (latencies r) with Some v -> Json.Float v | None -> Json.Null in
  rep_record ~ops:r.delivered ~wall
    (net_fields r
    @ [ ("latency_p50_us", pct 0.5); ("latency_p90_us", pct 0.9);
        ("latency_samples", Json.Int (List.length r.latencies_us)) ])

let net_setup ~seed () = ignore (net_call ~seed ~steps:1)

(* Per-call cost of a wire primitive, over [n] calls. *)
let per_call_ns n f =
  let c0 = Spans.now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  float_of_int (Spans.now () - c0) /. float_of_int n

let le64 id =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int id);
  Bytes.to_string b

(* The frame a delivery sends on the packed wire: a one-word XOR delta
   between two packed state ids plus a delta-form clock trailer, at
   ring5's sizes. *)
let codec_metrics () =
  let base = le64 41 and target = le64 97 in
  let delta = Option.get (Net.Delta.encode ~base ~target) in
  let cbase = [| 7; 3; 5; 2; 9 |] and clock = [| 8; 3; 6; 2; 9 |] in
  let trailer = Tele.Vclock.encode_wire ~base:cbase clock in
  let msg =
    Net.Codec.Deliver_delta { src = 1; seq = 12; base_seq = 11; delta; clock = trailer }
  in
  let frame = Net.Codec.encode ~algo:S.net_tag msg in
  (match Net.Codec.decode ~expect:S.net_tag frame with
   | Ok (_, m) when m = msg -> ()
   | _ -> failwith "codec round-trip failed");
  let n = 200_000 in
  [ metric "codec.encode_ns" "ns" (per_call_ns n (fun () -> Net.Codec.encode ~algo:S.net_tag msg));
    metric "codec.decode_ns" "ns"
      (per_call_ns n (fun () -> Net.Codec.decode ~expect:S.net_tag frame));
    metric "delta.encode_ns" "ns" (per_call_ns n (fun () -> Net.Delta.encode ~base ~target));
    metric "delta.apply_ns" "ns" (per_call_ns n (fun () -> Net.Delta.apply ~base delta));
    metric "vclock.wire_encode_ns" "ns"
      (per_call_ns n (fun () -> Tele.Vclock.encode_wire ~base:cbase clock));
    metric "vclock.wire_decode_ns" "ns"
      (per_call_ns n (fun () -> Tele.Vclock.decode_wire ~base:cbase trailer)) ]

let net_trace ~seed =
  let t0 = Unix.times () in
  let r, wall = timed (fun () -> net_call ~seed ~steps:net_trace_steps) in
  let t1 = Unix.times () in
  let own = t1.tms_utime +. t1.tms_stime -. t0.tms_utime -. t0.tms_stime in
  let nodes = t1.tms_cutime +. t1.tms_cstime -. t0.tms_cutime -. t0.tms_cstime in
  let lat = latencies r in
  let pct q =
    match Stats.percentile q lat with
    | Some v -> v
    | None -> failwith "net trace: too few deliveries for the percentile"
  in
  Json.Obj
    ([ ("ops", Json.Int r.delivered); ("wall_s", Json.Float wall) ]
    @ net_fields r
    @ [ ("metrics",
         Json.List
           ([ metric "net.bytes_per_snapshot" "B"
                (ratio "delivered snapshots" r.bytes_delivered r.delivered);
              metric "net.frames_per_step" "count" (ratio "net steps" r.node_frames r.steps);
              metric "net.resyncs" "count" (float_of_int r.resyncs);
              metric "net.latency_p50_us" "us" (pct 0.50);
              metric "net.latency_p90_us" "us" (pct 0.90);
              metric "net.latency_p99_us" "us" (pct 0.99);
              metric "net.latency_samples" "count" (float_of_int (Array.length lat));
              metric "net.cpu_orchestrator_share" "ratio" (own /. wall);
              metric "net.cpu_nodes_share" "ratio" (nodes /. wall);
              metric "net.wait_share" "ratio" (1. -. ((own +. nodes) /. wall)) ]
           @ codec_metrics ())) ])

(* ---------- driver scaling in n ---------- *)

let scale_trace ~seed =
  let pts =
    List.map
      (fun (n, steps) ->
        let h = S.ring n in
        let w0 = Gc.minor_words () in
        let r, wall =
          timed (fun () ->
              S.Run.run ~seed ~daemon:(Daemon.random_subset ())
                ~workload:(Workload.always_requesting h) ~steps h)
        in
        let words = Gc.minor_words () -. w0 in
        (n, wall *. 1e9 /. float_of_int r.steps, words /. float_of_int r.steps, r))
      scale_steps
  in
  Json.Obj
    [ ("ops", Json.Int (List.fold_left (fun a (_, _, _, r) -> a + r.Snapcc_experiments.Driver.steps) 0 pts));
      ("violations",
       Json.Int (List.fold_left (fun a (_, _, _, r) -> a + List.length r.Snapcc_experiments.Driver.violations) 0 pts));
      ("metrics",
       Json.List
         (List.concat_map
            (fun (n, ns, words, _) ->
              [ metric (Printf.sprintf "scale.n%d.step_ns" n) "ns" ns;
                metric (Printf.sprintf "scale.n%d.words_per_step" n) "words" words ])
            pts
         @ [ metric "scale.exponent" "ratio"
               (Stats.loglog_slope
                  (List.map (fun (n, ns, _, _) -> (float_of_int n, ns)) pts)) ])) ]

(* ---------- task table ---------- *)

(* What a child process can be asked to run.  [rep] is one rep at the
   fixed horizon, followed by [setup_calls] timed minimal-horizon calls
   (check times its own table build instead); they come after the rep's
   record is taken, so they touch neither its wall time nor its heap
   peak.  [gate] runs the workload's extra correctness checks;
   [trace_groups] holds the untraced reference and the traced run of one
   layer group. *)
let rep ~seed w =
  let with_setup setup run =
    match run () with
    | Json.Obj fields ->
      let samples = List.init setup_calls (fun _ -> Json.Float (snd (timed setup))) in
      Json.Obj (fields @ [ ("setup_s", Json.List samples) ])
    | j -> j
  in
  match w with
  | "run-ring24" -> with_setup (run_setup ~seed) (fun () -> run_rep ~seed ())
  | "mp-ring9" -> with_setup (mp_setup ~seed) (fun () -> mp_rep ~seed)
  | "check-triangle3" -> check_rep ()
  | "smc-triangle3" -> with_setup (smc_setup ~seed) (fun () -> smc_rep ~seed)
  | "net-ring5" -> with_setup (net_setup ~seed) (fun () -> net_rep ~seed ())
  | w -> invalid_arg ("unknown workload " ^ w)

let gate ~seed = function
  | "mp-ring9" -> Some (mp_gate ~seed)
  | "smc-triangle3" -> Some (smc_gate ~seed)
  | _ -> None

(* Traced runs: (group, untraced reference, traced run), each run in a
   fresh process so both pay the same warm-up; a second run in the same
   process reads 10-25% faster on these sub-second horizons.  check and
   the scaling curve have no reference. *)
let trace_groups =
  [ ("run-ring24", Some (fun ~seed -> run_rep ~steps:run_trace_steps ~seed ()), run_traced);
    ("mp-ring9", Some mp_ref, mp_trace);
    ("check-triangle3", None, fun ~seed:_ -> check_trace ());
    ("smc-triangle3", Some smc_ref, smc_trace);
    ("net-ring5", Some (fun ~seed -> net_rep ~steps:net_trace_steps ~seed ()), net_trace);
    ("scale", None, scale_trace) ]

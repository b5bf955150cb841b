(* Benchmark harness.

   Part 1 regenerates every table/figure of the paper (one table per
   experiment, see DESIGN.md's per-experiment index and EXPERIMENTS.md for
   the recorded paper-vs-measured comparison).

   Part 2 macro-benchmarks the exhaustive model checker (lib/mc) on the
   3-professor conflict triangle: states/second and peak resident states.

   Part 2b times the exact static tier (`ccsim lint --exact`) on its
   default families.

   Part 2c measures the runtime engines on single2: the shared-memory
   driver with the packed scan memo against the guard closures, and the
   cost of vector-clock stamping on the `ccsim mp` pipeline, in time and
   in allocated words per step (CI-gated).

   Part 3 macro-benchmarks the networked runtime (lib/net): forked node
   processes on a ring behind lossy links, reporting snapshots/s, bytes/s
   and the end-to-end handoff-latency distribution.

   Part 3b measures the statistical tier (lib/smc): sequential against
   4 forked workers, whose reports must be byte-identical.

   Part 4 runs Bechamel micro-benchmarks — one Test.make per benchmark
   family — measuring the cost of a simulation step for each algorithm, the
   token substrate, and the exact matching computations behind the
   Theorem 4/5 bounds.

   `dune exec bench/main.exe` runs everything in full mode;
   `dune exec bench/main.exe -- --quick` uses the reduced sweeps (the same
   the test-suite uses). *)

module Families = Snapcc_hypergraph.Families
module Matching = Snapcc_hypergraph.Matching
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module X = Snapcc_experiments.Algos
module Registry = Snapcc_experiments.Registry
module Table = Snapcc_experiments.Table

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* Machine-readable results, written to BENCH_<quick|full>.json at the end
   (the CI artifact; `ccsim stats --validate-json` gates its shape). *)
module Json = Snapcc_telemetry.Json

(* ---------- Part 1: the paper's tables and figures ---------- *)

let run_experiments () =
  Format.printf "=== snap-stabilizing committee coordination: experiment tables (%s mode) ===@.@."
    (if quick then "quick" else "full");
  List.map
    (fun (e : Registry.entry) ->
      let t0 = Unix.gettimeofday () in
      let table = e.Registry.run ~quick in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%a@," Table.pp table;
      Format.printf "(%s: %.1fs)@.@." e.Registry.id dt;
      Json.Obj [ ("id", Json.String e.Registry.id); ("seconds", Json.Float dt) ])
    Registry.all

(* ---------- Part 2: model-checker macro-benchmark ---------- *)

(* Exhaustive exploration of cc1 ∘ vring from every initial configuration
   of the 3-professor conflict triangle (884736 roots; --quick drops to the
   single-committee pair): states/second of the hash-consed BFS and the
   peak resident state count, the two numbers that bound which instances
   `ccsim check` can verify. *)
let run_mc_bench () =
  let entry =
    match Snapcc_mc.Systems.find "cc1" with
    | Some e -> e
    | None -> assert false
  in
  let module S = (val entry.Snapcc_mc.Systems.make "vring") in
  let module Ex = Snapcc_mc.Explore.Make (S) in
  let h, topo =
    if quick then (Families.single 2, "single2")
    else (Families.pair_ring 3, "triangle3")
  in
  Format.printf "=== model checker: exhaustive cc1 ∘ vring on %s ===@." topo;
  let t0 = Unix.gettimeofday () in
  let r = Ex.explore h in
  let dt = Unix.gettimeofday () -. t0 in
  let gc = Gc.quick_stat () in
  let states_per_s = float_of_int (Ex.n_configs r) /. dt in
  let heap_mb =
    float_of_int (gc.Gc.heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)
  in
  Format.printf
    "states %d  transitions %d  complete %b@.\
     states/s %.0f  wall %.2fs  peak resident states %d  heap %.1f MB@.@."
    (Ex.n_configs r) (Ex.n_transitions r) (Ex.complete r)
    states_per_s dt (Ex.n_configs r) heap_mb;
  (* the same exploration again, driven by the exact tier's packed
     guard/footprint tables instead of the guard closures: table build
     time is the price, per-transition lookup the payoff *)
  let module Tb = Snapcc_mc.Tables.Make (S) in
  let t0 = Unix.gettimeofday () in
  let tb = Tb.build h in
  let build_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let rt = Ex.explore ~tables:tb h in
  let dt_tables = Unix.gettimeofday () -. t0 in
  let states_per_s_tables = float_of_int (Ex.n_configs rt) /. dt_tables in
  assert (Ex.n_configs rt = Ex.n_configs r);
  assert (Ex.n_transitions rt = Ex.n_transitions r);
  Format.printf
    "table-driven: build %.2fs  explore %.2fs  states/s %.0f  (x%.2f vs \
     closures)@.@."
    build_s dt_tables states_per_s_tables (dt /. dt_tables);
  (* the same exploration once more, quotiented by the statically admitted
     symmetry group (the vring counter gauge, Z_{n+1}): one stored
     configuration per orbit, same verdicts *)
  let module Sym = Snapcc_statics.Symmetry.Make (S) in
  let so = Sym.run h ~tables:tb in
  let sym_order = Snapcc_mc.Symmetry.order so.Snapcc_statics.Symmetry.group in
  let t0 = Unix.gettimeofday () in
  let rs = Ex.explore ~tables:tb ~symmetry:so.Snapcc_statics.Symmetry.group h in
  let dt_sym = Unix.gettimeofday () -. t0 in
  let states_per_s_sym = float_of_int (Ex.n_configs rs) /. dt_sym in
  let orbit_reduction =
    float_of_int (Ex.n_configs r) /. float_of_int (max 1 (Ex.n_configs rs))
  in
  assert (Ex.complete rs);
  assert (Ex.violations rs = Ex.violations r);
  Format.printf
    "symmetry: admitted group order %d  orbits %d  (x%.2f fewer states)  \
     explore %.2fs  states/s %.0f@.@."
    sym_order (Ex.n_configs rs) orbit_reduction dt_sym states_per_s_sym;
  Json.Obj
    [ ("algo", Json.String "cc1"); ("token", Json.String "vring");
      ("topo", Json.String topo);
      ("states", Json.Int (Ex.n_configs r));
      ("transitions", Json.Int (Ex.n_transitions r));
      ("complete", Json.Bool (Ex.complete r));
      ("states_per_s", Json.Float states_per_s);
      ("wall_s", Json.Float dt);
      ("table_build_s", Json.Float build_s);
      ("wall_s_tables", Json.Float dt_tables);
      ("states_per_s_tables", Json.Float states_per_s_tables);
      ("tables_speedup", Json.Float (dt /. dt_tables));
      ("symmetry_order", Json.Int sym_order);
      ("orbits", Json.Int (Ex.n_configs rs));
      ("orbit_reduction", Json.Float orbit_reduction);
      ("wall_s_sym", Json.Float dt_sym);
      ("states_per_s_sym", Json.Float states_per_s_sym);
      ("peak_resident_states", Json.Int (Ex.n_configs r));
      ("heap_mb", Json.Float heap_mb) ]

(* ---------- Part 2b: exact static tier wall time ---------- *)

(* Wall time of the exact footprint analysis (lib/statics Exact over
   lib/mc Tables) on the families `ccsim lint --exact` runs by default:
   full domain-product enumeration per process under all input modes,
   verify mode on.  --quick drops line3 (CC3 there costs ~10s). *)
let run_exact_bench () =
  let topos =
    if quick then [ ("single2", Families.single 2) ]
    else [ ("single2", Families.single 2); ("line3", Families.path 3) ]
  in
  Format.printf "=== exact static tier (lint --exact families) ===@.";
  let rows =
    List.concat_map
      (fun key ->
        let entry =
          match Snapcc_mc.Systems.find key with
          | Some e -> e
          | None -> assert false
        in
        let module S = (val entry.Snapcc_mc.Systems.make "tree") in
        let module Ex = Snapcc_statics.Exact.Make (S) in
        List.map
          (fun (topo, h) ->
            let _, cov, _ = Ex.run ~algo:key ~topo h in
            Format.printf "%-4s %-8s %9d cells  %6.2fs  complete=%b@." key
              topo cov.Snapcc_statics.Exact.cells
              cov.Snapcc_statics.Exact.seconds
              cov.Snapcc_statics.Exact.complete;
            Json.Obj
              [ ("algo", Json.String key); ("topo", Json.String topo);
                ("cells", Json.Int cov.Snapcc_statics.Exact.cells);
                ("wall_s", Json.Float cov.Snapcc_statics.Exact.seconds);
                ("complete", Json.Bool cov.Snapcc_statics.Exact.complete) ])
          topos)
      [ "cc1"; "cc2"; "cc3" ]
  in
  Format.printf "@.";
  rows

(* ---------- Part 2c: runtime-engine macro-benchmark ---------- *)

(* cc3 on single2, a topology whose scan memo warms within a few steps:
   (a) the shared-memory driver end to end, memo against guard closures
   (meetings/s; monitors and workload dilute the per-step win), asserted
   trace-equal; (b) the observability tax on the pipeline `ccsim mp`
   runs. *)
let run_engine_bench () =
  let (module S) =
    match Snapcc_mc.Systems.resolve "cc3" with
    | Some r -> r.Snapcc_mc.Systems.sys
    | None -> failwith "cc3 is not in the catalog"
  in
  let module Pk_cc3 = Snapcc_mc.Packed.Make (S) in
  let topo, h = ("single2", Families.single 2) in
  let steps = if quick then 30_000 else 150_000 in
  Format.printf "=== runtime engines: cc3 on %s ===@." topo;
  let hooks = Pk_cc3.hooks (Pk_cc3.build h) in
  (* (a) driver: meetings over the full monitored pipeline *)
  let module R = Snapcc_experiments.Driver.Make (S) in
  let driver ?packed () =
    let daemon = Daemon.random_subset () in
    let workload = Workload.always_requesting h in
    let t0 = Unix.gettimeofday () in
    let r = R.run ~seed:3 ?packed ~daemon ~workload ~steps h in
    (r, Unix.gettimeofday () -. t0)
  in
  let rc, dt_c = driver () in
  let rp, dt_p = driver ~packed:hooks () in
  assert (rc.Snapcc_experiments.Driver.convened = rp.Snapcc_experiments.Driver.convened);
  assert (rc.Snapcc_experiments.Driver.steps = rp.Snapcc_experiments.Driver.steps);
  let meetings r = List.length r.Snapcc_experiments.Driver.convened in
  let meetings_per_s = float_of_int (meetings rc) /. dt_c in
  let meetings_per_s_packed = float_of_int (meetings rp) /. dt_p in
  Format.printf
    "driver: closures %.2fs  packed %.2fs  meetings/s %.0f -> %.0f  (x%.2f)@."
    dt_c dt_p meetings_per_s meetings_per_s_packed (dt_c /. dt_p);
  (* (b) observability tax, on the runner `ccsim mp` itself calls
     ([Driver.Mp]: workload inputs and observation, engine step, the
     observer's Spec + Metrics, all on a discard hub) with vector-clock
     stamping on vs off.  Two kinds of figure:

     - time: each on/off pair runs back-to-back and `stamping_overhead`
       (CI-gated) is the median pair ratio, which cancels host frequency
       drift that a min-of-k cannot (adjacent runs share the slow
       phase).  An unchanged configuration costs the monitors O(1), so
       the unstamped loop is short and the clock event a visible share
       of it; any change that shortens the loop raises the ratio.
     - allocation: minor words per step of the unstamped pipeline
       (`mp_words_per_step`) and what stamping adds to it
       (`stamping_words_per_step`), both CI-gated.  They are
       deterministic, so they catch a per-event clock copy or a new
       allocation in the loop at any loop length, where the time ratio
       blurs.

     Stamping must not change the execution either way (obs equality
     per pair below; it never touches the rng). *)
  let module Tele = Snapcc_telemetry in
  let module Mp = Snapcc_experiments.Driver.Mp (S) in
  let mp_steps = steps * 4 in
  let pipeline ~vclock () =
    let hub = Tele.Hub.create () in
    Tele.Hub.add_sink hub (Tele.Sink.custom ~emit:ignore ~close:ignore);
    let workload = Workload.always_requesting h in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let _, eng =
      Mp.run ~seed:1 ~telemetry:hub ~vclock ~workload ~steps:mp_steps h
    in
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. w0) /. float_of_int mp_steps in
    Tele.Hub.close hub;
    (eng, dt, words)
  in
  ignore (pipeline ~vclock:false ());
  let _, _, mp_words_per_step = pipeline ~vclock:false () in
  let eng, _, stamped_words = pipeline ~vclock:true () in
  let stamping_words_per_step = stamped_words -. mp_words_per_step in
  let pairs = 5 in
  let ratios =
    Array.init pairs (fun _ ->
        let e0, pt_off, _ = pipeline ~vclock:false () in
        let e1, pt_on, _ = pipeline ~vclock:true () in
        assert (Mp.E.obs e0 = Mp.E.obs e1);
        (pt_off, pt_on))
  in
  let pt_off = Array.fold_left (fun a (o, _) -> a +. o) 0. ratios in
  let pt_on = Array.fold_left (fun a (_, o) -> a +. o) 0. ratios in
  let rs = Array.map (fun (o, n) -> n /. o) ratios in
  Array.sort compare rs;
  let stamping_overhead = rs.(pairs / 2) in
  Format.printf
    "mp:     pipeline unstamped %.2fs  stamped %.2fs  (median overhead \
     x%.3f over %d pairs)@."
    pt_off pt_on stamping_overhead pairs;
  Format.printf "mp:     %.1f minor words/step unstamped, stamping +%.1f@."
    mp_words_per_step stamping_words_per_step;
  let profile = Mp.E.profile eng in
  Format.printf "mp profile:";
  List.iter (fun (k, v) -> Format.printf "  %s=%d" k v) profile;
  Format.printf "@.@.";
  Json.Obj
    [ ("algo", Json.String "cc3"); ("topo", Json.String topo);
      ("driver_steps", Json.Int steps);
      ("meetings", Json.Int (meetings rc));
      ("meetings_per_s", Json.Float meetings_per_s);
      ("meetings_per_s_packed", Json.Float meetings_per_s_packed);
      ("driver_speedup", Json.Float (dt_c /. dt_p));
      ("mp_steps", Json.Int mp_steps);
      ("stamping_overhead", Json.Float stamping_overhead);
      ("mp_words_per_step", Json.Float mp_words_per_step);
      ("stamping_words_per_step", Json.Float stamping_words_per_step);
      ("profile",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) profile)) ]

(* ---------- Part 3: networked-runtime macro-benchmark ---------- *)

module Net = Snapcc_net

(* End-to-end throughput of the multi-process runtime: one forked OS
   process per professor, lossy links (drop + delay + dup + corrupt) and a
   mid-run corruption burst, the same soak the CI job runs.  Snapshots/s
   and bytes/s count deliveries through the link layer; the handoff
   latency is wall-clock µs from the link-layer send to the frame's
   hand-off to the node's connection (the node's [Delivered] is checked
   later, before its next activation). *)
let run_net_bench () =
  let n, steps = if quick then (5, 2_000) else (9, 10_000) in
  let h = Families.pair_ring n in
  let plan =
    { Net.Faults.none with drop = 0.05; delay = 2; dup = 0.02; corrupt = 0.02 }
  in
  let cfg engine =
    { Net.Orchestrator.algo = "cc1"; seed = 11; init = `Canonical;
      deliver_bias = 0.5; steps; plan; burst = Some (steps / 2); engine }
  in
  Format.printf "=== networked runtime: cc1 on ring%d, %d steps, faults %a ===@."
    n steps Net.Faults.pp plan;
  let soak engine =
    match
      Net.Orchestrator.run ~mode:Net.Spawn.Fork
        ~workload:(Workload.always_requesting h) (cfg engine) h
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  (* full-marshal wire first: its numbers are the historical baseline *)
  let r = soak `Closure in
  let rp = soak `Packed in
  (* the wire engine must not change the execution, only its byte cost *)
  assert (rp.Net.Orchestrator.delivered = r.Net.Orchestrator.delivered);
  assert (rp.Net.Orchestrator.malformed = r.Net.Orchestrator.malformed);
  assert (rp.Net.Orchestrator.stabilized_in = r.Net.Orchestrator.stabilized_in);
  assert (rp.Net.Orchestrator.final_obs = r.Net.Orchestrator.final_obs);
  let per_snapshot (x : Net.Orchestrator.result) =
    float_of_int x.bytes_delivered /. float_of_int (max 1 x.delivered)
  in
  let bytes_per_snapshot = per_snapshot r in
  let bytes_per_snapshot_packed = per_snapshot rp in
  let bytes_delta = bytes_per_snapshot /. bytes_per_snapshot_packed in
  Format.printf
    "wire: full-snapshot %.1f B/snapshot  packed-delta %.1f B/snapshot  \
     (x%.2f smaller, %d resyncs)@."
    bytes_per_snapshot bytes_per_snapshot_packed bytes_delta
    rp.Net.Orchestrator.resyncs;
  let lat = r.Net.Orchestrator.latencies_us in
  let pct q = Snapcc_analysis.Metrics.percentile q lat in
  let lat_max = List.fold_left max 0 lat in
  let snapshots_per_s = float_of_int r.delivered /. r.wall_s in
  let bytes_per_s = float_of_int r.bytes_delivered /. r.wall_s in
  (* Bucketized against the shared telemetry edges (one definition for
     bench, `ccsim net', `ccsim stats' and the live dashboards); the
     overflow bucket catches scheduling hiccups so the counts always sum
     to [delivered]. *)
  let counts = Snapcc_telemetry.Registry.bucket_counts lat in
  Format.printf
    "sent %d  delivered %d  dropped %d (malformed %d)  violations %d@.\
     snapshots/s %.0f  bytes/s %.0f  wall %.2fs@.\
     handoff latency p50 %dus  p90 %dus  p99 %dus  max %dus@."
    r.sent r.delivered r.dropped r.malformed
    (List.length r.violations) snapshots_per_s bytes_per_s r.wall_s
    (pct 0.50) (pct 0.90) (pct 0.99) lat_max;
  List.iter
    (fun (label, c) -> if c > 0 then Format.printf "  %-10s %6d@." label c)
    counts;
  Format.printf "@.";
  let hist =
    List.map
      (fun (label, c) ->
        Json.Obj [ ("bucket", Json.String label); ("count", Json.Int c) ])
      counts
  in
  Json.Obj
    [ ("algo", Json.String "cc1");
      ("topo", Json.String (Printf.sprintf "ring%d" n));
      ("steps", Json.Int r.steps); ("seed", Json.Int 11);
      ("faults", Json.String (Format.asprintf "%a" Net.Faults.pp plan));
      ("burst_at", Json.Int (steps / 2));
      ("sent", Json.Int r.sent); ("delivered", Json.Int r.delivered);
      ("dropped", Json.Int r.dropped); ("malformed", Json.Int r.malformed);
      ("bytes_sent", Json.Int r.bytes_sent);
      ("bytes_delivered", Json.Int r.bytes_delivered);
      ("bytes_per_snapshot", Json.Float bytes_per_snapshot);
      ("bytes_per_snapshot_packed", Json.Float bytes_per_snapshot_packed);
      ("bytes_per_snapshot_delta", Json.Float bytes_delta);
      ("resyncs", Json.Int rp.Net.Orchestrator.resyncs);
      ("snapshots_per_s", Json.Float snapshots_per_s);
      ("bytes_per_s", Json.Float bytes_per_s);
      ("wall_s", Json.Float r.wall_s);
      ("violations", Json.Int (List.length r.violations));
      ("stabilized_in",
       (match r.stabilized_in with Some s -> Json.Int s | None -> Json.Null));
      ("latency_us",
       Json.Obj
         [ ("p50", Json.Int (pct 0.50)); ("p90", Json.Int (pct 0.90));
           ("p99", Json.Int (pct 0.99)); ("max", Json.Int lat_max) ]);
      ("latency_histogram", Json.List hist) ]

(* ---------- Part 3b: statistical tier (lib/smc) ---------- *)

module Smc = Snapcc_smc

(* Monte-Carlo throughput of `ccsim smc`: the same estimate computed
   sequentially and with 4 forked workers.  The two reports must be
   byte-identical (the tier's core guarantee — asserted here on every
   bench run); the speedup is what CI gates on, since the runner there
   has >= 4 cores.  CI widths travel with the numbers so precision
   regressions (e.g. a broken pooled-wait merge) are visible in the
   artifact diff. *)
let run_smc_bench () =
  let topo_name, trials, budget =
    if quick then ("ring5", 240, 400) else ("ring9", 2000, 600)
  in
  let workers = 4 in
  let cfg w =
    { Smc.Runner.algo = "cc1";
      topo_name;
      topo = Families.by_name topo_name;
      daemon = "random";
      workload = "always";
      disc = 2;
      budget;
      trials;
      workers = w;
      seed = 42;
      confidence = 0.95;
      engine = `Packed;
      sprt = None;
      sprt_delta = 0.02;
      sprt_within = None }
  in
  Format.printf "=== smc: cc1 on %s, %d trials x %d steps ===@." topo_name
    trials budget;
  let time w =
    let t0 = Unix.gettimeofday () in
    let r =
      match Smc.Runner.run (cfg w) with Ok r -> r | Error e -> failwith e
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, wall1 = time 1 in
  let rp, wallp = time workers in
  assert (
    Json.to_string (Smc.Report.to_json r1)
    = Json.to_string (Smc.Report.to_json rp));
  let tps1 = float_of_int trials /. wall1 in
  let tpsp = float_of_int trials /. wallp in
  let speedup = tpsp /. tps1 in
  let width = function
    | Some (d : Smc.Report.dist) -> d.ci.Smc.Estimator.hi -. d.ci.Smc.Estimator.lo
    | None -> 0.
  in
  let mean = function
    | Some (d : Smc.Report.dist) -> d.mean
    | None -> 0.
  in
  let stab = r1.Smc.Report.stabilization in
  let wait = r1.Smc.Report.waiting in
  Format.printf
    "trials/s %.1f (1 worker)  %.1f (%d workers)  speedup x%.2f  (reports \
     byte-identical)@."
    tps1 tpsp workers speedup;
  Format.printf
    "stabilization mean %.2f (ci width %.3f)  waiting mean %.2f (ci width \
     %.3f)@.@."
    (mean stab) (width stab) (mean wait) (width wait);
  Json.Obj
    [ ("algo", Json.String "cc1");
      ("topo", Json.String topo_name);
      ("trials", Json.Int trials);
      ("budget", Json.Int budget);
      ("seed", Json.Int 42);
      ("workers", Json.Int workers);
      ("trials_per_s", Json.Float tps1);
      ("trials_per_s_parallel", Json.Float tpsp);
      ("parallel_speedup", Json.Float speedup);
      ("reports_identical", Json.Bool true);
      ("stabilization_mean", Json.Float (mean stab));
      ("stabilization_ci_width", Json.Float (width stab));
      ("waiting_mean", Json.Float (mean wait));
      ("waiting_ci_width", Json.Float (width wait)) ]

(* ---------- Part 4: Bechamel micro-benchmarks ---------- *)

open Bechamel
open Toolkit

(* One engine step (daemon selection + guard evaluation + atomic writes)
   under a steady always-requesting load. *)
let step_bench (type s) name (module A : Model.ALGO with type state = s) h =
  let module E = Snapcc_runtime.Engine.Make (A) in
  let eng = E.create ~seed:1 ~daemon:(Daemon.random_subset ()) h in
  let workload = Workload.always_requesting h in
  Test.make ~name
    (Staged.stage (fun () ->
         let inputs = Workload.inputs workload (E.obs eng) in
         let report = E.step eng ~inputs in
         if not report.Model.terminal then
           Workload.observe workload ~step:report.Model.step (E.obs eng)))

let token_bench name h =
  let module A = Snapcc_token.Layer.As_algo (Snapcc_token.Token_tree) in
  let module E = Snapcc_runtime.Engine.Make (A) in
  let eng = E.create ~seed:1 ~daemon:(Daemon.random_subset ()) h in
  Test.make ~name
    (Staged.stage (fun () -> ignore (E.step eng ~inputs:Model.no_inputs)))

let leader_convergence_bench name h =
  let module E = Snapcc_runtime.Engine.Make (Snapcc_token.Leader.Algo) in
  let seed = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr seed;
         let eng = E.create ~seed:!seed ~init:`Random ~daemon:Daemon.synchronous h in
         ignore (E.run eng ~steps:10_000 ~inputs_at:(fun _ -> Model.no_inputs) ())))

let matching_bench name h =
  Test.make ~name (Staged.stage (fun () -> ignore (Matching.bounds h)))

let mp_step_bench name h =
  let module E = Snapcc_mp.Mp_engine.Make (X.Cc2) in
  let eng = E.create ~seed:1 h in
  let workload = Workload.always_requesting h in
  Test.make ~name
    (Staged.stage (fun () ->
         let inputs = Workload.inputs workload (E.obs eng) in
         ignore (E.step eng ~inputs)))

let tests () =
  let fig1 = Families.fig1 () in
  let ring9 = Families.pair_ring 9 in
  let tri9 = Families.k_uniform_ring ~n:9 ~k:3 in
  [ step_bench "step/cc1/fig1" (module X.Cc1) fig1;
    step_bench "step/cc2/fig1" (module X.Cc2) fig1;
    step_bench "step/cc3/fig1" (module X.Cc3) fig1;
    step_bench "step/cc1/ring9" (module X.Cc1) ring9;
    step_bench "step/cc2/ring9" (module X.Cc2) ring9;
    step_bench "step/cc2/triring9" (module X.Cc2) tri9;
    step_bench "step/cc2/ring24" (module X.Cc2) (Families.pair_ring 24);
    step_bench "step/cc2/ring48" (module X.Cc2) (Families.pair_ring 48);
    step_bench "step/dining/fig1" (module X.Dining) fig1;
    step_bench "step/central/fig1" (module X.Central) fig1;
    mp_step_bench "mp-step/cc2/ring9" ring9;
    token_bench "token/step/ring9" ring9;
    leader_convergence_bench "leader/converge/fig1" fig1;
    matching_bench "matching/bounds/fig4" (Families.fig4 ());
    matching_bench "matching/bounds/ring8" (Families.pair_ring 8);
  ]

let run_micro_benchmarks () =
  Format.printf "=== Bechamel micro-benchmarks (time per call) ===@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 500 else 2000)
      ~quota:(Time.second (if quick then 0.25 else 0.75))
      ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"snapcc" ~fmt:"%s %s" (tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-28s %14s@." "benchmark" "ns/call";
  List.iter (fun (name, ns) -> Format.printf "%-28s %14.1f@." name ns) rows;
  Format.printf "@.";
  List.map
    (fun (name, ns) ->
      Json.Obj [ ("name", Json.String name); ("ns_per_call", Json.Float ns) ])
    rows

let () =
  let experiments = run_experiments () in
  let mc = run_mc_bench () in
  let exact = run_exact_bench () in
  let engine = run_engine_bench () in
  let net = run_net_bench () in
  let smc = run_smc_bench () in
  let micro = run_micro_benchmarks () in
  let label = if quick then "quick" else "full" in
  let file = Printf.sprintf "BENCH_%s.json" label in
  let oc = open_out file in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("mode", Json.String label);
            ("experiments", Json.List experiments);
            ("mc", mc);
            ("exact", Json.List exact);
            ("engine", engine);
            ("net", net);
            ("smc", smc);
            ("micro", Json.List micro) ]));
  output_char oc '\n';
  close_out oc;
  Format.printf "machine-readable results written to %s@." file

(* The smc report: every estimate the tier publishes, with its interval.

   Deliberately free of wall-clock times and worker counts — the report
   is a pure function of (algo, topo, workload, daemon, disc, budget,
   seed, confidence, trial records), so the `--workers 4' and
   `--workers 1' runs of the same seed emit byte-identical JSON.  The
   bench and tests diff the files directly. *)

module Json = Snapcc_telemetry.Json
module Registry = Snapcc_telemetry.Registry

type dist = {
  samples : int;
  mean : float;
  sd : float;
  ci : Estimator.ci;  (* Student-t interval on the mean *)
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type proportion = { count : int; p : float; ci : Estimator.ci }

type t = {
  algo : string;
  topo : string;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;
  trials : int;
  seed : int;
  confidence : float;
  stabilization : dist option;  (* over trials that stabilized *)
  stabilized : proportion;  (* P(stabilized within budget), Wilson *)
  waiting : dist option;  (* waits pooled across all trials *)
  deadlock : proportion;  (* P(terminal freeze within budget), Wilson *)
  violations : int;
  sprt : Sprt.outcome option;
}

(* The mean, sd and interval sum the samples in record order; the ranks
   and the maximum read one sorted copy, under the nearest-rank rule of
   [Metrics.percentile]. *)
let dist_of ~confidence samples =
  match samples with
  | [] -> None
  | _ ->
    let floats = List.map float_of_int samples in
    let mean, ci = Estimator.student_t_ci ~confidence floats in
    let sorted = Array.of_list samples in
    Array.stable_sort Int.compare sorted;
    let pc q = Registry.nearest_rank_sorted q sorted in
    Some
      { samples = Array.length sorted;
        mean;
        sd = Estimator.sd floats;
        ci;
        p50 = pc 0.50;
        p90 = pc 0.90;
        p99 = pc 0.99;
        max = sorted.(Array.length sorted - 1) }

let proportion_of ~confidence ~count ~trials =
  let p, ci = Estimator.wilson ~confidence ~successes:count ~trials in
  { count; p; ci }

let build ~algo ~topo ~daemon ~workload ~disc ~budget ~seed ~confidence ?sprt
    records =
  let trials = List.length records in
  let stab_times =
    List.filter_map (fun r -> r.Trial.stabilized) records
  in
  let waits = List.concat_map (fun r -> r.Trial.waits) records in
  let deadlocks =
    List.length (List.filter (fun r -> r.Trial.deadlocked) records)
  in
  let violations =
    List.fold_left (fun acc r -> acc + r.Trial.violations) 0 records
  in
  { algo;
    topo;
    daemon;
    workload;
    disc;
    budget;
    trials;
    seed;
    confidence;
    stabilization = dist_of ~confidence stab_times;
    stabilized =
      proportion_of ~confidence ~count:(List.length stab_times) ~trials;
    waiting = dist_of ~confidence waits;
    deadlock = proportion_of ~confidence ~count:deadlocks ~trials;
    violations;
    sprt }

let ok t =
  t.violations = 0
  && (match t.sprt with
      | Some o -> o.Sprt.verdict <> Sprt.Rejected
      | None -> true)

let ci_json (ci : Estimator.ci) =
  Json.Obj [ ("lo", Json.Float ci.Estimator.lo); ("hi", Json.Float ci.Estimator.hi) ]

let dist_json d =
  Json.Obj
    [ ("samples", Json.Int d.samples);
      ("mean", Json.Float d.mean);
      ("sd", Json.Float d.sd);
      ("ci", ci_json d.ci);
      ("p50", Json.Int d.p50);
      ("p90", Json.Int d.p90);
      ("p99", Json.Int d.p99);
      ("max", Json.Int d.max) ]

let proportion_json pr =
  Json.Obj
    [ ("count", Json.Int pr.count);
      ("p", Json.Float pr.p);
      ("ci", ci_json pr.ci) ]

let sprt_json (o : Sprt.outcome) =
  Json.Obj
    [ ("theta", Json.Float o.Sprt.spec.Sprt.theta);
      ("delta", Json.Float o.Sprt.spec.Sprt.delta);
      ("alpha", Json.Float o.Sprt.spec.Sprt.alpha);
      ("beta", Json.Float o.Sprt.spec.Sprt.beta);
      ("verdict", Json.String (Sprt.verdict_name o.Sprt.verdict));
      ("consumed", Json.Int o.Sprt.consumed);
      ("successes", Json.Int o.Sprt.successes);
      ("llr", Json.Float o.Sprt.llr) ]

let opt f = function Some v -> f v | None -> Json.Null

let to_json t =
  Json.Obj
    [ ("kind", Json.String "smc_report");
      ("algo", Json.String t.algo);
      ("topo", Json.String t.topo);
      ("daemon", Json.String t.daemon);
      ("workload", Json.String t.workload);
      ("disc", Json.Int t.disc);
      ("budget", Json.Int t.budget);
      ("trials", Json.Int t.trials);
      ("seed", Json.Int t.seed);
      ("confidence", Json.Float t.confidence);
      ("stabilization_steps", opt dist_json t.stabilization);
      ("stabilized_within_budget", proportion_json t.stabilized);
      ("waiting_steps", opt dist_json t.waiting);
      ("deadlock", proportion_json t.deadlock);
      ("violations", Json.Int t.violations);
      ("sprt", opt sprt_json t.sprt) ]

let pp_dist ppf d =
  Format.fprintf ppf
    "mean %.2f +- [%.2f, %.2f]  sd %.2f  p50 %d  p90 %d  p99 %d  max %d  (%d samples)"
    d.mean d.ci.Estimator.lo d.ci.Estimator.hi d.sd d.p50 d.p90 d.p99 d.max
    d.samples

let pp_proportion ppf pr =
  Format.fprintf ppf "%.4g  [%.4g, %.4g]  (%d hits)" pr.p pr.ci.Estimator.lo
    pr.ci.Estimator.hi pr.count

let pp ppf t =
  Format.fprintf ppf
    "smc: %s on %s, %d trials x %d steps (workload %s, daemon %s, seed %d)@."
    t.algo t.topo t.trials t.budget t.workload t.daemon t.seed;
  (match t.stabilization with
   | Some d -> Format.fprintf ppf "stabilization steps: %a@." pp_dist d
   | None -> Format.fprintf ppf "stabilization steps: no trial stabilized@.");
  Format.fprintf ppf "P(stabilized <= budget): %a@." pp_proportion
    t.stabilized;
  (match t.waiting with
   | Some d -> Format.fprintf ppf "waiting steps: %a@." pp_dist d
   | None -> Format.fprintf ppf "waiting steps: no completed waits@.");
  Format.fprintf ppf "P(deadlock): %a@." pp_proportion t.deadlock;
  Format.fprintf ppf "violations: %d" t.violations;
  match t.sprt with
  | None -> ()
  | Some o ->
    Format.fprintf ppf
      "@.sprt: P(stabilized) >= %g (delta %g): %s after %d trials (%d successes, llr %.3f)"
      o.Sprt.spec.Sprt.theta o.Sprt.spec.Sprt.delta
      (Sprt.verdict_name o.Sprt.verdict)
      o.Sprt.consumed o.Sprt.successes o.Sprt.llr

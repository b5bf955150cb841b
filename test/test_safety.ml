(* Property-based generalization of the safety sweeps: on random
   hypergraphs, from random configurations, under random daemons, every
   meeting convened by CC1/CC2/CC3 satisfies the full specification and the
   fair algorithms serve everyone. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Metrics = Snapcc_analysis.Metrics
module X = Snapcc_experiments.Algos
module Driver = Snapcc_experiments.Driver

type case = { seed : int; n : int; m : int; daemon_ix : int; algo_ix : int }

let gen_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "seed=%d n=%d m=%d daemon=%d algo=%d" c.seed c.n c.m
        c.daemon_ix c.algo_ix)
    QCheck.Gen.(
      map
        (fun (seed, n, m, d, a) -> { seed; n; m; daemon_ix = d; algo_ix = a })
        (tup5 (int_bound 100_000) (int_range 4 10) (int_range 3 8) (int_bound 2)
           (int_bound 2)))

let daemon_of = function
  | 0 -> Daemon.synchronous
  | 1 -> Daemon.central ()
  | _ -> Daemon.random_subset ()

let run_case c =
  let h = Families.random ~seed:c.seed ~n:c.n ~m:c.m in
  let (module A) = (List.nth (X.paper_algorithms ()) c.algo_ix).X.algo in
  let module R = Driver.Make (A) in
  R.run ~seed:c.seed ~init:`Random ~daemon:(daemon_of c.daemon_ix)
    ~workload:(Workload.always_requesting h) ~steps:3_000 h

let prop_no_violations =
  QCheck.Test.make ~name:"random systems: spec holds from arbitrary configs"
    ~count:40 gen_case
    (fun c ->
      let r = run_case c in
      r.Driver.violations = [])

let prop_liveness =
  QCheck.Test.make ~name:"random systems: meetings keep convening" ~count:40
    gen_case
    (fun c ->
      let r = run_case c in
      r.Driver.summary.Metrics.convenes > 0)

let prop_fairness =
  QCheck.Test.make ~name:"random systems: CC2/CC3 serve every professor"
    ~count:25
    (QCheck.make
       ~print:(fun (s, n, m, fair3) ->
         Printf.sprintf "seed=%d n=%d m=%d cc3=%b" s n m fair3)
       QCheck.Gen.(
         tup4 (int_bound 100_000) (int_range 4 8) (int_range 3 6) bool))
    (fun (seed, n, m, use_cc3) ->
      let h = Families.random ~seed ~n ~m in
      let (module A) =
        (List.nth (X.paper_algorithms ()) (if use_cc3 then 2 else 1)).X.algo
      in
      let module R = Driver.Make (A) in
      let r =
        R.run ~seed ~init:`Random ~daemon:(Daemon.random_subset ())
          ~workload:(Workload.always_requesting h) ~steps:15_000 h
      in
      Array.for_all (fun c -> c > 0) r.Driver.participations)

(* discussion counters are consistent with participations on every run *)
let prop_two_phase_counters =
  QCheck.Test.make ~name:"random systems: one discussion per participation"
    ~count:30 gen_case
    (fun c ->
      let h = Families.random ~seed:c.seed ~n:c.n ~m:c.m in
      let (module A) = (List.nth (X.paper_algorithms ()) c.algo_ix).X.algo in
      let module R = Driver.Make (A) in
      (* canonical start so counters begin at zero *)
      let r =
        R.run ~seed:c.seed ~daemon:(daemon_of c.daemon_ix)
          ~workload:(Workload.always_requesting h) ~steps:3_000 h
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun p (o : Snapcc_runtime.Obs.t) ->
             let parts = r.Driver.participations.(p) in
             let disc = o.Snapcc_runtime.Obs.discussions in
             disc = parts || disc = parts - 1)
           r.Driver.final_obs))

let suite =
  [ ( "safety:qcheck",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_no_violations; prop_liveness; prop_fairness;
          prop_two_phase_counters ] );
  ]

(** EXP-BASE — §6 related-work comparison.

    The same always-requesting workload on the same topologies, across the
    paper's algorithms, the two §6 baselines (circulating-token-only,
    centralized manager), the dining-philosophers reduction and the
    no-token ablation of CC1.  Measures throughput (convenes per 1000
    steps), concurrency, waiting and starvation: the paper's qualitative
    claims are that the token-only scheme loses concurrency, greedy schemes
    lose fairness, and CC1/CC2 trade the two against each other. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Metrics = Snapcc_analysis.Metrics

type row = {
  algo : string;
  topo : string;
  throughput : float;  (** convenes per 1000 steps *)
  mean_concurrency : float;
  max_concurrency : int;
  mean_wait : float;  (** steps *)
  max_wait : int;
  unserved : int;  (** professors never participating *)
  violations : int;
}

type result = row list

let runners () =
  Algos.all_algorithms ()
  @ [ { Algos.label = "CC1/no-token"; algo = (module Algos.Cc1_no_token) } ]

let topologies ~quick () =
  if quick then [ ("fig1", Families.fig1 ()); ("ring6", Families.pair_ring 6) ]
  else
    [ ("fig1", Families.fig1 ());
      ("ring9", Families.pair_ring 9);
      ("triring9", Families.k_uniform_ring ~n:9 ~k:3);
      ("rand12", Families.random ~seed:42 ~n:12 ~m:10);
    ]

let run ?(quick = false) () : result =
  let steps = if quick then 5_000 else 20_000 in
  List.concat_map
    (fun (topo, h) ->
      List.map
        (fun (runner : Algos.runner) ->
          let (module A) = runner.Algos.algo in
          let module R = Driver.Make (A) in
          let r =
            R.run ~seed:17 ~daemon:(Daemon.random_subset ())
              ~workload:(Workload.always_requesting h) ~steps h
          in
          let s = r.Driver.summary in
          {
            algo = runner.Algos.label;
            topo;
            throughput =
              (if r.Driver.steps = 0 then 0.
               else
                 1000. *. float_of_int s.Metrics.convenes
                 /. float_of_int r.Driver.steps);
            mean_concurrency = s.Metrics.mean_concurrency;
            max_concurrency = s.Metrics.max_concurrency;
            mean_wait = Metrics.mean s.Metrics.completed_waits_steps;
            max_wait = s.Metrics.max_wait_steps;
            unserved =
              Array.fold_left
                (fun a c -> if c = 0 then a + 1 else a)
                0 r.Driver.participations;
            violations = List.length r.Driver.violations;
          })
        (runners ()))
    (topologies ~quick ())

let table (r : result) =
  {
    Table.id = "related-work-baselines";
    title =
      "Related-work comparison (always-requesting professors, same workload \
       and daemon)";
    header =
      [ "algorithm"; "topology"; "convenes/1k"; "mean conc"; "max conc";
        "mean wait"; "max wait"; "unserved"; "violations" ];
    rows =
      List.map
        (fun row ->
          [ row.algo; row.topo; Table.f1 row.throughput;
            Table.f2 row.mean_concurrency; Table.i row.max_concurrency;
            Table.f1 row.mean_wait; Table.i row.max_wait; Table.i row.unserved;
            Table.i row.violations ])
        r;
    notes =
      [ "token-only = Bagrodia's circulating-token scheme (one convening \
         path): expect the lowest concurrency (paper §6).";
        "CC1/no-token = ablation: without the token, Progress can fail \
         (unserved professors) even though safety holds.";
      ];
  }

let find (r : result) ~algo ~topo =
  List.find (fun row -> row.algo = algo && row.topo = topo) r

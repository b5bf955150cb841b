(** EXP-ABL — ablations of the two starred design decisions (DESIGN.md).

    {b Token retention.}  The single mechanical difference that buys CC2 its
    fairness is that a token holder {e retains} the token until it meets
    (§3.2).  Grafting CC1's release-when-useless rule onto CC2
    ([Cc2_eager]) and replaying the Theorem 1 staggered schedule shows
    professor 5 starving again: fairness lost with one switched rule.

    {b Edge selection.}  Where the paper writes "ε such that
    ε ∈ FreeEdges_p", the choice is a don't-care for correctness; we compare
    the default (smallest edge id) with a widest-committee-first strategy on
    topologies with mixed committee sizes, measuring meeting size and
    throughput. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload
module Metrics = Snapcc_analysis.Metrics

type retention = {
  algo : string;
  prof5 : int;  (** participations of the Theorem 1 victim *)
  convenes : int;
  violations : int;
}

type selection = {
  strategy : string;
  topo : string;
  throughput : float;  (** convenes per 1000 steps *)
  mean_meeting_size : float;
  mean_concurrency : float;
}

type result = { retention : retention list; selection : selection list }

let retention_run ~steps label run =
  let h = Families.fig2 () in
  let r =
    run ~seed:7 ~daemon:(Daemon.random_subset ())
      ~workload:(Exp_impossibility.staggered h) ~steps h
  in
  {
    algo = label;
    prof5 = r.Driver.participations.(Exp_impossibility.prof5);
    convenes = r.Driver.summary.Metrics.convenes;
    violations = List.length r.Driver.violations;
  }

let selection_run ~steps strategy run topo h =
  let r =
    (run ~seed:9 ~daemon:(Daemon.random_subset ())
       ~workload:(Workload.always_requesting h) ~steps h
      : Driver.result)
  in
  let s = r.Driver.summary in
  let total_participations = Array.fold_left ( + ) 0 r.Driver.participations in
  {
    strategy;
    topo;
    throughput =
      (if r.Driver.steps = 0 then 0.
       else 1000. *. float_of_int s.Metrics.convenes /. float_of_int r.Driver.steps);
    mean_meeting_size =
      (if s.Metrics.convenes = 0 then 0.
       else float_of_int total_participations /. float_of_int s.Metrics.convenes);
    mean_concurrency = s.Metrics.mean_concurrency;
  }

let run ?(quick = false) () : result =
  let steps = if quick then 8_000 else 30_000 in
  let retention =
    [ retention_run ~steps "CC2 (retain until met)" (fun ~seed ~daemon ~workload ~steps h ->
          Algos.Run_cc2.run ~seed ~daemon ~workload ~steps h);
      retention_run ~steps "CC2 + eager release" (fun ~seed ~daemon ~workload ~steps h ->
          Algos.Run_cc2_eager.run ~seed ~daemon ~workload ~steps h);
      retention_run ~steps "CC1 (always eager)" (fun ~seed ~daemon ~workload ~steps h ->
          Algos.Run_cc1.run ~seed ~daemon ~workload ~steps h);
    ]
  in
  let sel_steps = if quick then 6_000 else 20_000 in
  let topos =
    [ ("fig1", Families.fig1 ());
      ("rand12", Families.random ~seed:42 ~n:12 ~m:10);
    ]
  in
  let selection =
    List.concat_map
      (fun (topo, h) ->
        [ selection_run ~steps:sel_steps "min-edge-id"
            (fun ~seed ~daemon ~workload ~steps h ->
              Algos.Run_cc1.run ~seed ~daemon ~workload ~steps h)
            topo h;
          selection_run ~steps:sel_steps "widest-first"
            (fun ~seed ~daemon ~workload ~steps h ->
              Algos.Run_cc1_widest.run ~seed ~daemon ~workload ~steps h)
            topo h;
        ])
      topos
  in
  { retention; selection }

let table (r : result) =
  let retention_rows =
    List.map
      (fun x ->
        [ "retention"; x.algo; "-"; Table.i x.prof5; Table.i x.convenes;
          Table.i x.violations ])
      r.retention
  in
  let selection_rows =
    List.map
      (fun s ->
        [ "selection"; s.strategy; s.topo;
          Printf.sprintf "%.1f/1k" s.throughput;
          Printf.sprintf "size %.2f" s.mean_meeting_size;
          Printf.sprintf "conc %.2f" s.mean_concurrency ])
      r.selection
  in
  {
    Table.id = "ablations";
    title =
      "Design-decision ablations: token retention (fairness switch) and \
       Step21 edge selection";
    header = [ "ablation"; "variant"; "topo"; "prof5/thruput"; "convenes/size"; "viol/conc" ];
    rows = retention_rows @ selection_rows;
    notes =
      [ "retention: replaying the Theorem 1 schedule — CC2 serves professor \
         5; the same algorithm with CC1's eager release starves it, \
         confirming that token retention alone carries the fairness proof \
         (§3.2).";
        "selection: the edge choice is a correctness don't-care; \
         widest-first trades meeting count for meeting size.";
      ];
  }

let ok (r : result) =
  let find label = List.find (fun x -> x.algo = label) r.retention in
  (find "CC2 (retain until met)").prof5 > 0
  && (find "CC2 + eager release").prof5 = 0
  && (find "CC1 (always eager)").prof5 = 0
  && List.for_all (fun x -> x.violations = 0) r.retention
  && List.for_all (fun s -> s.throughput > 0.) r.selection

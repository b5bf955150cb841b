(** EXP-T2/T3 — Theorems 2 & 3: snap-stabilization.

    Every run starts from an {e arbitrary} configuration (both the CC and
    the token layers randomized) and suffers an additional mid-run transient
    fault; the specification monitor judges every meeting that convenes.
    Snap-stabilization means {e zero} violations — no warm-up allowance —
    plus liveness (meetings keep convening, and for CC2/CC3 every professor
    keeps participating).  The baselines run under the same regime to show
    they are {e not} snap-stabilizing (or rely on a clean start). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Workload = Snapcc_workload.Workload

type algo_result = {
  label : string;
  runs : int;
  convenes : int;
  violations : int;
  starving : int;  (** runs leaving some professor unserved (always-requesting) *)
}

type result = algo_result list

let topologies ~quick () =
  if quick then [ Families.fig1 (); Families.pair_ring 5 ]
  else
    [ Families.fig1 (); Families.fig2 (); Families.fig4 ();
      Families.pair_ring 6; Families.k_uniform_ring ~n:7 ~k:3;
      Families.random ~seed:5 ~n:10 ~m:8;
      Families.with_shuffled_ids ~seed:9 (Families.fig1 ());
    ]

let measure ~quick (runner : Algos.runner) =
  let (module A) = runner.Algos.algo in
  let module R = Driver.Make (A) in
  let daemons = Exp_common.daemons_for_sweep ~quick () in
  let seeds = Exp_common.seeds ~quick in
  let steps = if quick then 4_000 else 9_000 in
  let acc = ref { label = runner.Algos.label; runs = 0; convenes = 0; violations = 0; starving = 0 } in
  List.iter
    (fun h ->
      List.iter
        (fun daemon ->
          List.iter
            (fun seed ->
              let n = H.n h in
              (* one mid-run burst of transient faults hitting a third of
                 the processes *)
              let faults ~step =
                if step = steps / 2 then List.init (max 1 (n / 3)) (fun i -> (i * 3) mod n)
                else []
              in
              let r =
                R.run ~seed ~init:`Random ~faults ~daemon
                  ~workload:(Workload.always_requesting h) ~steps h
              in
              let starved =
                Array.exists (fun c -> c = 0) r.Driver.participations
              in
              acc :=
                { !acc with
                  runs = !acc.runs + 1;
                  convenes =
                    !acc.convenes + r.Driver.summary.Snapcc_analysis.Metrics.convenes;
                  violations = !acc.violations + List.length r.Driver.violations;
                  starving = (!acc.starving + if starved then 1 else 0);
                })
            seeds)
        daemons)
    (topologies ~quick ());
  !acc

let run ?(quick = false) () : result =
  List.map (measure ~quick) (Algos.all_algorithms ())

let table (r : result) =
  {
    Table.id = "thm23-snap";
    title =
      "Snap-stabilization grid: arbitrary initial configurations + mid-run \
       transient faults, specification monitored throughout";
    header = [ "algorithm"; "runs"; "convenes"; "violations"; "runs w/ starving prof" ];
    rows =
      List.map
        (fun a ->
          [ a.label; Table.i a.runs; Table.i a.convenes; Table.i a.violations;
            Table.i a.starving ])
        r;
    notes =
      [ "CC1/CC2/CC3 must show 0 violations (Theorems 2-3); CC1 may starve \
         professors (it is unfair by design), CC2/CC3 must not.";
        "token-only / dining / central are the related-work baselines: any \
         violations or starvation here illustrate what snap-stabilization \
         and fairness add.";
      ];
  }

let find label (r : result) = List.find (fun a -> a.label = label) r

let ok (r : result) =
  List.for_all
    (fun lbl -> (find lbl r).violations = 0)
    [ "CC1"; "CC2"; "CC3" ]
  && (find "CC2" r).starving = 0
  && (find "CC3" r).starving = 0
  && (find "CC1" r).convenes > 0

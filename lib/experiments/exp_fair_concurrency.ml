(** EXP-T45 — Theorems 4 & 5 (and the CC1 side of Theorem 2): the degree of
    fair concurrency.

    Professors never leave their meetings ({!Workload.infinite_meetings},
    the Definition 5 artefact); the system reaches a quiescent state whose
    meetings we count.  Over a sample of daemons and seeds:
    - CC1's quiescent meetings must form a {e maximal matching} of the
      hypergraph (Maximal Concurrency), hence at least [minMM] of them;
    - CC2's count must be at least [min MM∪AMM] (Theorem 4), itself at
      least [minMM - MaxMin + 1] (Theorem 5);
    - CC3's count must be at least [min MM∪AMM'] (Theorem 7), itself at
      least [minMM - MaxHEdge + 1] (Theorem 8). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Matching = Snapcc_hypergraph.Matching
module Obs = Snapcc_runtime.Obs
module Workload = Snapcc_workload.Workload

type algo_sample = {
  min_meetings : int;
  max_meetings : int;
  always_maximal : bool;  (** every quiescent state was a maximal matching *)
  runs : int;
}

type topo_result = {
  topo : string;
  bounds : Matching.bounds;
  cc1 : algo_sample;
  cc2 : algo_sample;
  cc3 : algo_sample;
}

type result = topo_result list

let topologies ~quick () =
  let base =
    [ ("fig2", Families.fig2 ());
      ("fig4", Families.fig4 ());
      ("ring6", Families.pair_ring 6);
      ("star5", Families.star 5);
    ]
  in
  if quick then base
  else
    base
    @ [ ("path7", Families.path 7);
        ("single4", Families.single 4);
        ("triring9", Families.k_uniform_ring ~n:9 ~k:3);
        ("fig1", Families.fig1 ());
      ]

let sample ~quick (runner : Algos.runner) h =
  let (module A) = runner.Algos.algo in
  let module R = Driver.Make (A) in
  let n = H.n h in
  let steps = 6_000 * n in
  let daemons = Exp_common.daemons_for_sweep ~quick () in
  let seeds = Exp_common.seeds ~quick in
  let counts = ref [] in
  let always_maximal = ref true in
  List.iter
    (fun daemon ->
      List.iter
        (fun seed ->
          let r =
            R.run ~seed ~daemon
              ~workload:(Workload.infinite_meetings h)
              ~stop_when:(Exp_common.stable_stop ~window:(60 * n) ())
              ~steps h
          in
          let meetings = Obs.meetings h r.Driver.final_obs in
          counts := List.length meetings :: !counts;
          if not (Matching.is_maximal_matching h meetings) then
            always_maximal := false)
        seeds)
    daemons;
  {
    min_meetings = List.fold_left min max_int !counts;
    max_meetings = List.fold_left max 0 !counts;
    always_maximal = !always_maximal;
    runs = List.length !counts;
  }

let run ?(quick = false) () : result =
  let algos = Algos.paper_algorithms () in
  let by label = List.find (fun r -> r.Algos.label = label) algos in
  List.map
    (fun (topo, h) ->
      {
        topo;
        bounds = Matching.bounds h;
        cc1 = sample ~quick (by "CC1") h;
        cc2 = sample ~quick (by "CC2") h;
        cc3 = sample ~quick (by "CC3") h;
      })
    (topologies ~quick ())

let table (r : result) =
  let rows =
    List.concat_map
      (fun t ->
        let b = t.bounds in
        let row algo (s : algo_sample) bound thm_lower =
          [ t.topo; algo;
            Table.i b.Matching.min_mm;
            Table.i bound;
            Table.i thm_lower;
            Printf.sprintf "%d..%d" s.min_meetings s.max_meetings;
            Table.b (s.min_meetings >= bound);
            Table.i s.runs;
          ]
        in
        [ (* CC1's "bound" is minMM: a maximal matching is at least that big *)
          row "CC1" t.cc1 b.Matching.min_mm b.Matching.min_mm
          @ [ (if t.cc1.always_maximal then "maximal" else "NOT-MAXIMAL") ];
          row "CC2" t.cc2 b.Matching.dfc_cc2 b.Matching.thm5_lower @ [ "-" ];
          row "CC3" t.cc3 b.Matching.dfc_cc3 b.Matching.thm8_lower @ [ "-" ];
        ])
      r
  in
  {
    Table.id = "thm45-dfc";
    title =
      "Degree of fair concurrency: quiescent meetings under infinite \
       discussions vs the Theorem 4/5/7/8 bounds";
    header =
      [ "topology"; "algo"; "minMM"; "thm4/7 bound"; "thm5/8 bound";
        "measured"; "bound ok"; "runs"; "cc1-maximality" ];
    rows;
    notes =
      [ "CC1 rows additionally check that every quiescent state is a maximal \
         matching (Maximal Concurrency, Theorem 2).";
        "Bounds are lower bounds on the worst case; measured minima may \
         exceed them.";
      ];
  }

let ok (r : result) =
  List.for_all
    (fun t ->
      t.cc1.always_maximal
      && t.cc1.min_meetings >= t.bounds.Matching.min_mm
      && t.cc2.min_meetings >= t.bounds.Matching.dfc_cc2
      && t.cc3.min_meetings >= t.bounds.Matching.dfc_cc3)
    r

(** EXP-T78 — §5.4 / Theorems 7 & 8: Committee Fairness of [CC3 ∘ TC].

    Long always-requesting runs: under CC3 every committee must convene
    (and keep convening); CC2 only guarantees professor fairness, so its
    per-committee counts may be skewed, possibly starving a committee.  The
    degree-of-fair-concurrency side of Theorems 7/8 is measured by
    {!Exp_fair_concurrency}; here we measure convene spreads. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Daemon = Snapcc_runtime.Daemon
module Workload = Snapcc_workload.Workload

type topo_result = {
  topo : string;
  m : int;
  cc2_counts : int array;
  cc3_counts : int array;
  cc2_starved_committees : int;  (** committees never convened under CC2 *)
  cc3_starved_committees : int;
  cc3_min_count : int;
  violations : int;
}

type result = topo_result list

let measure ~steps name h =
  let run (runner : Algos.runner) seed =
    let (module A) = runner.Algos.algo in
    let module R = Driver.Make (A) in
    R.run ~seed ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~steps h
  in
  let algos = Algos.paper_algorithms () in
  let by label = List.find (fun r -> r.Algos.label = label) algos in
  let r2 = run (by "CC2") 11 in
  let r3 = run (by "CC3") 11 in
  let starved counts = Array.fold_left (fun a c -> if c = 0 then a + 1 else a) 0 counts in
  {
    topo = name;
    m = H.m h;
    cc2_counts = r2.Driver.convene_count;
    cc3_counts = r3.Driver.convene_count;
    cc2_starved_committees = starved r2.Driver.convene_count;
    cc3_starved_committees = starved r3.Driver.convene_count;
    cc3_min_count = Array.fold_left min max_int r3.Driver.convene_count;
    violations = List.length r2.Driver.violations + List.length r3.Driver.violations;
  }

let run ?(quick = false) () : result =
  let steps = if quick then 15_000 else 60_000 in
  let topos =
    if quick then [ ("fig1", Families.fig1 ()); ("ring6", Families.pair_ring 6) ]
    else
      [ ("fig1", Families.fig1 ());
        ("ring6", Families.pair_ring 6);
        ("fig4", Families.fig4 ());
        ("star5", Families.star 5);
      ]
  in
  List.map (fun (name, h) -> measure ~steps name h) topos

let pp_counts counts =
  String.concat "/" (Array.to_list (Array.map string_of_int counts))

let table (r : result) =
  {
    Table.id = "thm78-cc3";
    title = "Committee fairness: per-committee convene counts, CC2 vs CC3";
    header =
      [ "topology"; "m"; "CC2 counts"; "CC3 counts"; "CC2 starved"; "CC3 starved";
        "CC3 min"; "violations" ];
    rows =
      List.map
        (fun t ->
          [ t.topo; Table.i t.m; pp_counts t.cc2_counts; pp_counts t.cc3_counts;
            Table.i t.cc2_starved_committees; Table.i t.cc3_starved_committees;
            Table.i t.cc3_min_count; Table.i t.violations ])
        r;
    notes =
      [ "CC3 must leave no committee starved (Committee Fairness, §5.4); CC2 \
         only guarantees that no professor starves.";
      ];
  }

let ok (r : result) =
  List.for_all (fun t -> t.cc3_starved_committees = 0 && t.violations = 0) r

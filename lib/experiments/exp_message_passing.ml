(** EXP-MP — the paper's first future-work item (§7): committee
    coordination in the message-passing model.

    We run the {e unchanged} CC1/CC2 algorithms through the classical
    state-dissemination transformation ({!Snapcc_mp.Mp_engine}): guards are
    evaluated against cached neighbor states refreshed by heartbeat
    messages over coalescing links, under an adversarial-but-fair scheduler
    and with transient faults hitting cores, caches and channels mid-run.

    What the experiment establishes, on the sampled grid:
    - the specification verdict (violations of synchronization / 2-phase
      discussion caused by stale views, if any) — the paper leaves the
      message-passing design open, so this measures how far the naive
      emulation gets;
    - liveness and fairness figures, and the message cost per meeting;
    - staleness actually exercised (max cache age), to show the runs are
      genuinely asynchronous rather than lockstep. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics

type run_stats = {
  algo : string;
  topo : string;
  bias : float;
  steps : int;
  convenes : int;
  violations : int;
  sync_violations : int;  (** exclusion + synchronization (expect 0) *)
  disc_violations : int;  (** essential/voluntary discussion (the gap) *)
  unserved : int;
  msgs_per_convene : float;
  max_staleness : int;
}

type result = run_stats list

(* Runs start from arbitrary cores, caches and channels, under a fault
   burst on a third of the processes at [fault_at]. *)
let mp_run (module A : Snapcc_runtime.Model.ALGO)
    ~algo ~topo ~seed ~bias ~steps ~fault_at h =
  let module R = Driver.Mp (A) in
  let victims = List.init (max 1 (H.n h / 3)) (fun k -> (3 * k) mod H.n h) in
  let r, eng =
    R.run ~seed ~init:`Random ~deliver_bias:bias
      ~faults:(fun ~step -> if step = fault_at then victims else [])
      ~workload:(Workload.always_requesting h) ~steps h
  in
  let vs = r.Driver.violations in
  let count rules =
    List.length (List.filter (fun (v : Spec.violation) -> List.mem v.Spec.rule rules) vs)
  in
  let convenes = r.Driver.summary.Metrics.convenes in
  {
    algo;
    topo;
    bias;
    steps;
    convenes;
    violations = List.length vs;
    sync_violations = count [ "exclusion"; "synchronization" ];
    disc_violations = count [ "essential-discussion"; "voluntary-discussion" ];
    unserved =
      Array.fold_left (fun a c -> if c = 0 then a + 1 else a) 0
        r.Driver.participations;
    msgs_per_convene =
      (if convenes = 0 then Float.infinity
       else float_of_int (R.E.messages_delivered eng) /. float_of_int convenes);
    max_staleness = R.E.max_staleness eng;
  }

let run ?(quick = false) () : result =
  let steps = if quick then 30_000 else 80_000 in
  let topos =
    if quick then [ ("fig1", Families.fig1 ()) ]
    else [ ("fig1", Families.fig1 ()); ("fig4", Families.fig4 ()); ("ring6", Families.pair_ring 6) ]
  in
  let biases = if quick then [ 0.5 ] else [ 0.7; 0.35 ] in
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  List.concat_map
    (fun (topo, h) ->
      List.concat_map
        (fun bias ->
          List.concat_map
            (fun seed ->
              let fault_at = steps / 2 in
              let r1 =
                mp_run (module Algos.Cc1) ~algo:"CC1/mp" ~topo ~seed ~bias
                  ~steps ~fault_at h
              in
              let r2 =
                mp_run (module Algos.Cc2) ~algo:"CC2/mp" ~topo ~seed ~bias
                  ~steps ~fault_at h
              in
              [ r1; r2 ])
            seeds)
        biases)
    topos

let table (r : result) =
  {
    Table.id = "mp-future-work";
    title =
      "Message-passing emulation (state dissemination over coalescing \
       links): the Section 7 future-work probe";
    header =
      [ "algorithm"; "topology"; "deliver bias"; "convenes"; "sync viol";
        "disc viol"; "unserved"; "msgs/convene"; "max staleness" ];
    rows =
      List.map
        (fun s ->
          [ s.algo; s.topo; Table.f2 s.bias; Table.i s.convenes;
            Table.i s.sync_violations; Table.i s.disc_violations;
            Table.i s.unserved; Table.f1 s.msgs_per_convene;
            Table.i s.max_staleness ])
        r;
    notes =
      [ "Runs start from arbitrary cores, caches AND channels, with a \
         mid-run fault burst; the monitor judges the true (core) \
         configuration.";
        "Measured finding: Exclusion holds by construction (a professor's \
         pointer is its own variable) and no Synchronization violation was \
         observed on the grid, but Essential Discussion measurably breaks \
         — a professor can leave on a stale view before a slow member has \
         discussed.  This is the gap the paper's future-work item must \
         close.";
      ];
  }

let total_violations (r : result) = List.fold_left (fun a s -> a + s.violations) 0 r

let ok (r : result) =
  List.for_all (fun s -> s.convenes > 0) r
  && List.for_all (fun s -> s.algo <> "CC2/mp" || s.unserved = 0) r
  (* exclusion and synchronization survive staleness... *)
  && List.for_all (fun s -> s.sync_violations = 0) r
  (* ...while 2-phase discussion measurably does not: the open problem *)
  && List.exists (fun s -> s.disc_violations > 0) r

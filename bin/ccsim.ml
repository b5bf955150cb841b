(* ccsim — command-line driver for the snap-stabilizing committee
   coordination library.

   ccsim run        simulate an algorithm on a topology, with monitors
   ccsim bounds     print the matching-theory bounds of a topology
   ccsim mp         simulate over the message-passing emulation
   ccsim net        run the processes as OS processes over faulty links
   ccsim experiment run one of the paper's experiments by id
   ccsim lint       static footprint/race/priority analysis of the algorithms
   ccsim check      exhaustively model-check a small instance
   ccsim smc        statistical model checking from corrupted starts
   ccsim orbits     verify symmetry certificates written by lint
   ccsim replay     re-execute a counterexample written by check
   ccsim stats      aggregate a JSONL trace, or validate a JSON artifact
   ccsim trace      rebuild a run from its vector-clock stamps
   ccsim list       available topologies, algorithms and experiments *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Matching = Snapcc_hypergraph.Matching
module Obs = Snapcc_runtime.Obs
module Trace = Snapcc_runtime.Trace
module Spec = Snapcc_analysis.Spec
module Driver = Snapcc_experiments.Driver
module Registry = Snapcc_experiments.Registry
module Table = Snapcc_experiments.Table
module Systems = Snapcc_mc.Systems
module Smc = Snapcc_smc

open Cmdliner

(* ---- shared arguments ---- *)

(* Shared validating converters (lib/cli — tested at the cmdliner level):
   every numeric option goes through one of these so `ccsim sim --steps
   -3' and friends fail at parse time with a uniform message instead of
   misbehaving downstream. *)

module Cli = Snapcc_cli.Cli

let pos_int_conv = Cli.pos_int_conv
let nonneg_int_conv = Cli.nonneg_int_conv
let probability_conv = Cli.probability_conv

let seed_arg =
  Arg.(value & opt nonneg_int_conv 1
       & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (non-negative).")

let steps_arg =
  Arg.(value & opt pos_int_conv 10_000
       & info [ "steps" ] ~docv:"N" ~doc:"Step horizon (positive).")

(* Every command's algorithm names come from the catalog
   (lib/mc/systems.ml); [accepts] is the command's share of it. *)
let algo_arg accepts =
  let doc =
    Printf.sprintf "Algorithm: %s (see `ccsim list')." (Systems.describe accepts)
  in
  Arg.(value & opt string "cc1" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

(* Daemon and workload names come from the statistical tier's table
   (lib/smc/trial.ml), so every command accepts the same keys. *)
let daemon_arg =
  let doc =
    Printf.sprintf "Daemon: %s." (String.concat "|" Smc.Trial.daemon_names)
  in
  Arg.(value & opt string "random" & info [ "d"; "daemon" ] ~docv:"DAEMON" ~doc)

let workload_arg =
  let doc =
    Printf.sprintf "Workload: %s." (String.concat "|" Smc.Trial.workload_names)
  in
  Arg.(value & opt string "always" & info [ "w"; "workload" ] ~docv:"WL" ~doc)

let disc_arg =
  Arg.(value & opt nonneg_int_conv 2 & info [ "disc" ] ~docv:"D"
         ~doc:"Voluntary-discussion length in steps (maxDisc).")

let random_init_arg =
  Arg.(value & flag & info [ "random-init" ]
         ~doc:"Start from an arbitrary configuration (post-fault state).")

let fault_arg = Cli.fault_arg

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution trace.")

let timeline_arg =
  Arg.(value & flag & info [ "timeline" ]
         ~doc:"Print the ASCII meeting timeline (committees x time).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps (what the tests run).")

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "ccsim: %s@." msg;
    exit 2

let daemon name =
  try Smc.Trial.daemon_of name with Invalid_argument msg -> or_die (Error msg)

(* the interactive commands pin the bursty arrival coin to seed 7 *)
let workload name ~disc h =
  try Smc.Trial.workload_of name ~disc ~seed:7 h
  with Invalid_argument msg -> or_die (Error msg)

(* ---- shared topology option ----

   Every command names its topology with [-t] through the one converter
   in lib/cli ([Cli.topo_conv]); lint's comma list resolves each name
   with [Cli.topology] — so the commands cannot drift. *)
let topology = Cli.topology

let topology_arg default =
  let doc =
    "Topology: fig1|fig2|fig3|fig4, ring<n>, path<n>, star<n>, clique<n>, \
     single<k>, line<n>, triangle3, one of the named families (see \
     `ccsim list'), or a path to a committee file (see \
     lib/hypergraph/hypergraph_io.mli for the format)."
  in
  Arg.(value & opt Cli.topo_conv (default, or_die (topology default))
       & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

(* ---- telemetry plumbing ---- *)

module Tele = Snapcc_telemetry

let write_json file json =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Tele.Json.to_string json);
      output_char oc '\n')

(* [read_lines "-"] reads standard input, so artifacts pipe straight into
   `ccsim stats -' and `ccsim trace -'. *)
let read_lines file =
  let drain ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  if file = "-" then drain stdin
  else begin
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> drain ic)
  end

(* A hub fanning out to the requested file sinks and, for [--emit-json],
   to an online [Tele.Stats] fold.  Returns the hub (None when nothing was
   requested) and a finalizer that writes the summary and closes the sinks
   (writing the catapult trailer) and the files. *)
let make_hub ?(force = false) ~emit_trace ~emit_json ~emit_catapult () =
  if emit_trace = None && emit_catapult = None && emit_json = None
     && not force
  then (None, fun () -> ())
  else begin
    (* catapult is the one artifact that renders timestamps; give the hub
       a real clock only when it is requested, so every other artifact
       stays a pure function of the seed *)
    let clock = if emit_catapult = None then None else Some Sys.time in
    let hub = Tele.Hub.create ?clock () in
    let closers = ref [] in
    let add_file mk file =
      let oc = open_out file in
      Tele.Hub.add_sink hub (mk (output_string oc));
      closers := (fun () -> close_out oc) :: !closers
    in
    Option.iter (add_file Tele.Sink.jsonl) emit_trace;
    Option.iter (add_file Tele.Sink.catapult) emit_catapult;
    let summary =
      Option.map
        (fun file ->
          let stats = Tele.Stats.create () in
          Tele.Hub.add_sink hub (Tele.Stats.sink stats);
          (file, stats))
        emit_json
    in
    ( Some hub,
      fun () ->
        Option.iter
          (fun (file, stats) ->
            let meta, summary = Tele.Stats.result stats in
            write_json file (Tele.Stats.to_json ?meta summary))
          summary;
        Tele.Hub.close hub;
        List.iter (fun f -> f ()) !closers )
  end

let emit_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-trace" ] ~docv:"FILE"
           ~doc:"Write the telemetry event stream as JSON Lines to $(docv) \
                 (one event per line; deterministic under --seed).")

let emit_json_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-json" ] ~docv:"FILE"
           ~doc:"Write a machine-readable summary (JSON) to $(docv).")

let emit_catapult_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-catapult" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event (catapult) export to $(docv); \
                 load it in about://tracing or ui.perfetto.dev.")

(* ---- run ---- *)

let run_cmd topo algo_name daemon_name workload_name steps seed disc random_init
    fault_at trace timeline emit_trace emit_json emit_catapult =
  let _, h = (topo : string * H.t) in
  let daemon = daemon daemon_name in
  let workload = workload workload_name ~disc h in
  let sys = or_die (Systems.lookup ~what:"run" Systems.any algo_name) in
  let (module S) = sys.Systems.sys in
  let module R = Driver.Make (S) in
  let init = if random_init then `Random else `Canonical in
  let fault_at = or_die (Cli.check_step ~flag:"--fault-at" ~steps fault_at) in
  let faults =
    Option.map
      (fun at ~step ->
        if step = at then List.init (max 1 (H.n h / 2)) (fun i -> 2 * i mod H.n h)
        else [])
      fault_at
  in
  let telemetry, finish_telemetry =
    make_hub ~emit_trace ~emit_json ~emit_catapult ()
  in
  let record_trace = trace || timeline in
  (* guard scans are served from a memo of neighbourhood configurations
     over an interner, on any topology *)
  let module Pk = Snapcc_mc.Packed.Make (S) in
  let packed = Pk.hooks (Pk.build h) in
  let r =
    R.run ~seed ~init ?faults ?telemetry ~record_trace ~packed ~daemon ~workload
      ~steps h
  in
  finish_telemetry ();
  let count key = List.assoc key r.Driver.profile in
  let hits = count "engine_scan_hits" in
  Format.printf "engine: packed (memo served %d of %d guard scans)@." hits
    (hits + count "engine_scan_fallbacks");
  Format.printf "%a@." Driver.pp_result r;
  if r.Driver.violations <> [] then begin
    Format.printf "@.violations:@.";
    List.iter (fun v -> Format.printf "  %a@." Spec.pp_violation v) r.Driver.violations
  end;
  Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h) r.Driver.final_obs;
  (match r.Driver.trace with
   | Some tr when timeline ->
     Format.printf "@.meeting timeline:@.%a@." (Trace.pp_timeline ~width:72) tr
   | Some _ | None -> ());
  (match r.Driver.trace with
   | Some tr when trace -> Format.printf "@.trace:@.%a@." Trace.pp tr
   | Some _ | None -> ());
  if r.Driver.violations <> [] then exit 1

let run_term =
  Term.(
    const run_cmd $ topology_arg "fig1" $ algo_arg Systems.any $ daemon_arg
    $ workload_arg $ steps_arg $ seed_arg $ disc_arg $ random_init_arg $ fault_arg $ trace_arg
    $ timeline_arg $ emit_trace_arg $ emit_json_arg $ emit_catapult_arg)

(* ---- mp (message-passing emulation) ---- *)

let mp_cmd topo algo_name workload_name steps seed disc random_init bias
    emit_trace emit_json =
  let _, h = (topo : string * H.t) in
  let workload = workload workload_name ~disc h in
  let telemetry, finish_telemetry =
    make_hub ~emit_trace ~emit_json ~emit_catapult:None ()
  in
  let sys = or_die (Systems.lookup ~what:"mp" Systems.wired algo_name) in
  let (module S) = sys.Systems.sys in
  let module R = Driver.Mp (S) in
  let r, eng =
    R.run ~seed
      ~init:(if random_init then `Random else `Canonical)
      ~deliver_bias:bias ?telemetry ~workload ~steps h
  in
  finish_telemetry ();
  Format.printf "%s over message passing: %d steps, %d meetings, %d violations@."
    S.name steps
    (List.length r.Driver.convened)
    (List.length r.Driver.violations);
  Format.printf
    "messages: %d sent, %d delivered (%d in flight); max staleness %d steps@."
    (R.E.messages_sent eng) (R.E.messages_delivered eng) (R.E.in_flight eng)
    (R.E.max_staleness eng);
  List.iteri
    (fun i v -> if i < 10 then Format.printf "  %a@." Spec.pp_violation v)
    r.Driver.violations;
  Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h)
    r.Driver.final_obs

(* validated argument converters, shared by `ccsim mp' and `ccsim net' *)

let bias_arg =
  Arg.(value & opt probability_conv 0.5
       & info [ "deliver-bias" ] ~docv:"P"
           ~doc:"Probability in [0,1] that a step delivers a message rather \
                 than activating a process (lower = more staleness).")

let mp_term =
  Term.(
    const mp_cmd $ topology_arg "fig1" $ algo_arg Systems.wired $ workload_arg
    $ steps_arg $ seed_arg $ disc_arg $ random_init_arg $ bias_arg
    $ emit_trace_arg $ emit_json_arg)

(* ---- net (networked multi-process runtime) ---- *)

module Net = Snapcc_net

let faults_conv =
  let parse s =
    match Net.Faults.parse s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"SPEC" (parse, Net.Faults.pp)

let faults_arg =
  Arg.(value & opt faults_conv Net.Faults.none
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault plan for the links, netem style: comma-separated \
                 drop=P, delay=STEPS, dup=P, reorder=P, corrupt=P, \
                 partition=FROM-TO (e.g. \
                 drop=0.05,delay=2,partition=100-400).  Deterministic \
                 under --seed.")

let burst_arg = Cli.burst_arg
let soak_arg = Cli.soak_arg

let fork_arg =
  Arg.(value & flag
       & info [ "fork" ]
           ~doc:"Fork the node processes from this one (socketpairs) \
                 instead of spawning `ccsim node' executables over TCP \
                 loopback.")

let dash_arg =
  Arg.(value & flag
       & info [ "dash" ]
           ~doc:"Render an in-place live dashboard on stderr while the soak \
                 runs (steps, convenes, deliveries, drops by reason, latency \
                 and waiting percentiles, verdicts).")

let prom_arg =
  Arg.(value & opt (some string) None
       & info [ "prom" ] ~docv:"FILE"
           ~doc:"Rewrite $(docv) atomically (temp file + rename) with a \
                 Prometheus text exposition of the live metrics registry, \
                 ready for a file-based scrape.")

let live_interval_arg =
  Arg.(value & opt (some float) None
       & info [ "live-interval" ] ~docv:"SECONDS"
           ~doc:"Throttle for --dash/--prom refreshes (default 0.5s / 2s).")

let net_cmd topo algo_name workload_name steps seed disc random_init bias
    faults burst soak fork emit_trace emit_json emit_catapult dash prom
    live_interval =
  let _, h = (topo : string * H.t) in
  let workload = workload workload_name ~disc h in
  let burst =
    or_die
      (Cli.check_step ~flag:"--burst-at" ~steps
         (Cli.resolve_burst ~steps ~soak burst))
  in
  let telemetry, finish_telemetry =
    make_hub ~force:(dash || prom <> None) ~emit_trace ~emit_json
      ~emit_catapult ()
  in
  (match telemetry with
   | Some hub when dash || prom <> None ->
     let live = Tele.Live.create ~registry:(Tele.Hub.registry hub) () in
     let now = Unix.gettimeofday in
     if dash then
       Tele.Live.add_dash ?interval:live_interval live ~now
         ~write:(fun s -> output_string stderr s; flush stderr);
     (match prom with
      | Some path -> Tele.Live.add_prom ?interval:live_interval live ~now ~path
      | None -> ());
     Tele.Hub.add_sink hub (Tele.Live.sink live)
   | Some _ | None -> ());
  let mode =
    if fork then Net.Spawn.Fork else Net.Spawn.Exec Sys.executable_name
  in
  let cfg =
    { Net.Orchestrator.algo = algo_name; seed;
      init = (if random_init then `Random else `Canonical);
      deliver_bias = bias; steps; plan = faults; burst; engine = `Packed }
  in
  let r = or_die (Net.Orchestrator.run ?telemetry ~mode ~workload cfg h) in
  finish_telemetry ();
  Format.printf "%s over %d node processes (packed-delta wire), faults: %a@."
    algo_name (H.n h) Net.Faults.pp faults;
  Format.printf "%a@." Net.Orchestrator.pp_result r;
  (match r.Net.Orchestrator.latencies_us with
   | [] -> ()
   | l ->
     let pc q = Snapcc_analysis.Metrics.percentile q l in
     Format.printf
       "delivery latency: p50 %dus, p90 %dus, p99 %dus, max %dus (%d samples)@."
       (pc 0.50) (pc 0.90) (pc 0.99)
       (Snapcc_analysis.Metrics.maximum l)
       (List.length l);
     List.iter
       (fun (label, c) ->
         if c > 0 then Format.printf "  %-10s %6d@." label c)
       (Tele.Registry.bucket_counts l));
  if r.Net.Orchestrator.violations <> [] then begin
    Format.printf "@.violations:@.";
    List.iter
      (fun v -> Format.printf "  %a@." Spec.pp_violation v)
      r.Net.Orchestrator.violations
  end;
  Format.printf "@.final configuration:@.%a@." (Obs.pp_snapshot h)
    r.Net.Orchestrator.final_obs;
  if r.Net.Orchestrator.violations <> [] then exit 1

let net_term =
  Term.(
    const net_cmd $ topology_arg "fig1" $ algo_arg Systems.wired
    $ workload_arg $ steps_arg $ seed_arg $ disc_arg $ random_init_arg $ bias_arg
    $ faults_arg $ burst_arg $ soak_arg $ fork_arg $ emit_trace_arg
    $ emit_json_arg $ emit_catapult_arg $ dash_arg $ prom_arg
    $ live_interval_arg)

(* ---- bounds ---- *)

let bounds_cmd topo =
  let _, h = (topo : string * H.t) in
  Format.printf "%a@.@." H.pp h;
  if H.m h > 18 then
    Format.printf "(%d committees: exact bounds may take a while)@." (H.m h);
  Format.printf "%a@." Matching.pp_bounds (Matching.bounds h)

let bounds_term = Term.(const bounds_cmd $ topology_arg "fig1")

(* ---- experiment ---- *)

let experiment_cmd id quick =
  match id with
  | "all" ->
    List.iter
      (fun (e : Registry.entry) ->
        Format.printf "%a@.@." Table.pp (e.Registry.run ~quick))
      Registry.all
  | id ->
    (match Registry.find id with
     | Some e -> Format.printf "%a@." Table.pp (e.Registry.run ~quick)
     | None ->
       Format.eprintf "ccsim: unknown experiment %S (try `ccsim list')@." id;
       exit 2)

let experiment_id_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"ID"
         ~doc:"Experiment id (see `ccsim list'), or `all'.")

let experiment_term = Term.(const experiment_cmd $ experiment_id_arg $ quick_arg)

(* ---- lint (static analysis, lib/statics) ---- *)

module Lint = Snapcc_statics.Lint
module Lint_report = Snapcc_statics.Report
module Lint_exact = Snapcc_statics.Exact
module Lint_sym = Snapcc_statics.Symmetry

let lint_default_topos = [ "fig1"; "ring6"; "path5"; "star5"; "single4" ]

(* The exact tier enumerates full domain products, so its default families
   are the small ones it finishes in seconds; triangle3 (minutes for CC3)
   stays opt-in via -t. *)
let lint_exact_default_topos = [ "single2"; "line3" ]

let split s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

(* A comma-separated list of catalog names, or `all': every key the
   command accepts, over its catalog token. *)
let names_arg accepts = function "all" -> Systems.keys accepts | s -> split s

let lint_cmd topos algos seed seeds max_configs verbose emit_json exact
    tables table_cap symmetry orbits =
  let cfg =
    Lint.config ~seed ~seeds ~max_configs ~exact ~symmetry ?table_cap ?tables
      ?orbits ()
  in
  let systems =
    List.map
      (fun a -> or_die (Systems.lookup ~what:"lint" Systems.lintable a))
      (names_arg Systems.lintable algos)
  in
  let topos =
    match topos with
    | Some l -> l
    | None ->
      List.map
        (fun t -> (t, or_die (topology t)))
        (if cfg.Lint.exact then lint_exact_default_topos
         else lint_default_topos)
  in
  let cells =
    List.concat_map
      (fun r -> List.map (fun (topo, h) -> Lint.run cfg r ~topo h) topos)
      systems
  in
  let exacts = List.filter_map (fun c -> c.Lint.exact) cells in
  let reports =
    List.map (fun c -> c.Lint.sampled) cells
    @ List.map (fun e -> e.Lint.report) exacts
  in
  Format.printf "%a@." Table.pp (Lint_report.summary_table reports);
  List.iter
    (fun r ->
      if (not (Lint_report.ok r)) || r.Lint_report.waived <> [] || verbose then
        Format.printf "@.%a@." Table.pp (Lint_report.detail_table r))
    reports;
  List.iter
    (fun (c : Lint.cell) ->
      match c.Lint.exact with
      | None -> ()
      | Some e ->
        let cov = e.Lint.coverage in
        Format.printf "exact %s on %s: %d (cell, mode) pairs in %.2fs%s%s@."
          c.Lint.name c.Lint.topo cov.Lint_exact.cells cov.Lint_exact.seconds
          (if cov.Lint_exact.complete then ", complete"
           else ", INCOMPLETE (skipped passes)")
          (if cov.Lint_exact.tainted then ", TAINTED" else "");
        List.iter
          (fun (p, reason) -> Format.printf "  proc %d: %s@." p reason)
          cov.Lint_exact.proc_status;
        (match e.Lint.symmetry with
        | None -> ()
        | Some (so : Lint_sym.outcome) ->
          Format.printf
            "symmetry %s on %s: aut group %d%s, %d candidate(s), admitted \
             group order %d%s (%d pairs, %.2fs)@."
            c.Lint.name c.Lint.topo so.Lint_sym.aut_order
            (if so.Lint_sym.aut_complete then "" else "+")
            so.Lint_sym.candidates
            (Snapcc_mc.Symmetry.order so.Lint_sym.group)
            (match so.Lint_sym.admitted with
            | [] -> ""
            | l -> Printf.sprintf " [%s]" (String.concat ", " l))
            so.Lint_sym.pairs so.Lint_sym.seconds;
          if verbose then
            List.iter
              (fun (name, reason) ->
                Format.printf "  rejected %s: %s@." name reason)
              so.Lint_sym.rejected))
    cells;
  let lines = List.concat_map Lint_report.to_lines reports in
  if lines <> [] then begin
    Format.printf "@.";
    List.iter (fun l -> Format.printf "%s@." l) lines
  end;
  List.iter
    (fun (c : Lint.cell) ->
      List.iter
        (fun (f : Lint_report.finding) ->
          Format.printf
            "lint algo=%s topo=%s disagreement: sampled %s finding on \
             action=%s proc=%d not reproduced by the exact tier@."
            c.Lint.name c.Lint.topo
            (Lint_report.rule_name f.Lint_report.rule)
            f.Lint_report.action f.Lint_report.proc)
        (match c.Lint.exact with Some e -> e.Lint.unmatched | None -> []))
    cells;
  Option.iter (fun file -> write_json file (Lint.to_json cfg cells)) emit_json;
  if not (List.for_all Lint.ok cells) then exit 1

let lint_topos_arg =
  Arg.(value & opt (some (list Cli.topo_conv)) None
       & info [ "t"; "topologies" ] ~docv:"TOPOS"
           ~doc:(Printf.sprintf
                   "Comma-separated topologies to analyze (same names as \
                    --topology).  Default %s, or %s with the exact tier."
                   (String.concat "," lint_default_topos)
                   (String.concat "," lint_exact_default_topos)))

let lint_algos_arg =
  Arg.(value & opt string "all"
       & info [ "a"; "algos" ] ~docv:"ALGOS"
           ~doc:
             (Printf.sprintf "Comma-separated algorithms (%s), or `all'."
                (Systems.describe Systems.lintable)))

let lint_seeds_arg =
  Arg.(value & opt nonneg_int_conv 24 & info [ "seeds" ] ~docv:"N"
         ~doc:"Random (post-fault) configurations seeded into the exploration.")

let lint_max_configs_arg =
  Arg.(value & opt pos_int_conv 240 & info [ "max-configs" ] ~docv:"N"
         ~doc:"Cap on the exhaustive reachable-configuration enumeration.")

let lint_verbose_arg =
  Arg.(value & flag & info [ "verbose" ]
         ~doc:"Print per-report detail tables even for clean passes.")

let lint_exact_arg =
  Arg.(value & flag
       & info [ "exact" ]
           ~doc:"Additionally run the exact tier: enumerate every process's \
                 full domain-product support under all input modes, prove \
                 (not sample) the side conditions and dead actions, check \
                 that every sampled finding is reproduced by the exact \
                 tier, and reclassify sampled dead-action suspects as \
                 proven or unreached-in-sample.")

let lint_tables_arg =
  Arg.(value & opt (some dir) None
       & info [ "tables" ] ~docv:"DIR"
           ~doc:"Write one snapcc-tables artifact per (algorithm, topology) \
                 into DIR (implies --exact).")

let lint_table_cap_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "table-cap" ] ~docv:"N"
           ~doc:"Exact-tier enumeration cap on (cell, mode) pairs per \
                 process (default 2^27); overruns are reported as skipped \
                 passes, never silently truncated.")

let lint_symmetry_arg =
  Arg.(value & flag
       & info [ "symmetry" ]
           ~doc:"Run the static symmetry analyzer (implies --exact): \
                 enumerate conflict-hypergraph automorphisms, lift them \
                 together with declared internal state symmetries to \
                 candidate algorithm symmetries, and admit exactly those \
                 proven to commute with every packed guard/footprint table \
                 entry.")

let lint_orbits_arg =
  Arg.(value & opt (some dir) None
       & info [ "orbits" ] ~docv:"DIR"
           ~doc:"Write one snapcc-orbits v1 certificate per (algorithm, \
                 topology) into DIR (implies --symmetry); each certificate \
                 passes `ccsim orbits'.")

let lint_term =
  Term.(
    const lint_cmd $ lint_topos_arg $ lint_algos_arg $ seed_arg $ lint_seeds_arg
    $ lint_max_configs_arg $ lint_verbose_arg $ emit_json_arg $ lint_exact_arg
    $ lint_tables_arg $ lint_table_cap_arg
    $ lint_symmetry_arg $ lint_orbits_arg)

(* ---- orbits (certificate verifier) ---- *)

let orbits_cmd files =
  let failures =
    List.fold_left
      (fun acc file ->
        match Snapcc_statics.Symmetry.verify_file file with
        | Ok () ->
          Format.printf "%s: OK@." file;
          acc
        | Error msg ->
          Format.printf "%s: FAILED: %s@." file msg;
          acc + 1)
      0 files
  in
  if failures > 0 then begin
    Format.printf "%d certificate(s) failed verification@." failures;
    exit 1
  end

let orbits_files_arg =
  Arg.(non_empty & pos_all string []
       & info [] ~docv:"FILE" ~doc:"snapcc-orbits v1 certificate file(s).")

let orbits_term = Term.(const orbits_cmd $ orbits_files_arg)

(* ---- check (exhaustive model checker, lib/mc) ---- *)

module Mc_report = Snapcc_mc.Report
module Cex = Snapcc_mc.Counterexample

let check_one ~(r : Systems.resolved) ~topo_name ~h ~max_states ~keep_going
    ~sample ~seed ~cex_path ~progress ~on_progress ~symmetry =
  let module S = (val r.Systems.sys) in
  let module Check = Snapcc_mc.Check.Make (S) in
  let module CexM = Snapcc_mc.Counterexample.Make (S) in
  let since = Sys.time () in
  (* static symmetry admission: build the exact guard tables, lift
     hypergraph automorphisms and declared internal symmetries over them,
     then explore the quotient.  The explorer reads its steps from the same
     tables, since they are built; without symmetry it runs the guard
     closures. *)
  let tables, sym_group =
    match symmetry with
    | `Off -> (None, None)
    | `Auto ->
      (* the tables reuse the exploration budget: a process whose table
         would dwarf the configuration cap is left to the closures *)
      let module Tb = Snapcc_mc.Tables.Make (S) in
      let tb = Tb.build ~cap:(max_states * 8) h in
      if progress then
        Format.eprintf "  guard tables: %s@."
          (if Tb.built tb then "built"
           else "partial (closure fallback for skipped processes)");
      let module Sym = Snapcc_statics.Symmetry.Make (S) in
      let so = Sym.run h ~tables:tb in
      let open Snapcc_statics.Symmetry in
      let ord = Snapcc_mc.Symmetry.order so.group in
      if ord > 1 then
        Format.printf
          "  symmetry: admitted group of order %d from %d candidate(s) [%s] \
           (%d pairs streamed, %.2fs)@."
          ord so.candidates
          (String.concat ", " so.admitted)
          so.pairs so.seconds
      else begin
        Format.printf
          "  symmetry: only the trivial group admitted (%d candidate(s) \
           rejected; exploring in full)@."
          so.candidates;
        if progress then
          List.iter
            (fun (name, reason) ->
              Format.eprintf "    rejected %s: %s@." name reason)
            so.rejected
      end;
      (Some tb, if ord > 1 then Some so.group else None)
  in
  let c =
    Check.run ~max_configs:max_states ~keep_going ~sample ~seed ?on_progress
      ?tables ?symmetry:sym_group ~since ~algo:r.Systems.entry.Systems.key
      ~token:(Option.value r.Systems.token ~default:"-") ~topo:topo_name h
  in
  let report = c.Check.report in
  if report.Mc_report.symmetry_order > 1 then
    Format.printf
      "  symmetry: stored %d orbit representatives (quotient of order %d)@."
      report.Mc_report.configs report.Mc_report.symmetry_order;
  Format.printf "%a@." Mc_report.pp report;
  List.iteri
    (fun i (p, s) ->
      if i < 5 then
        Format.printf "  escapee: process %d state %a@." p S.pp_state s)
    c.Check.escapees;
  if report.Mc_report.dead <> [] then
    Format.printf
      "  note: action(s) never executed on any transition (suspect): %s@."
      (String.concat ", " report.Mc_report.dead);
  (* persist and replay-confirm the minimized counterexample *)
  Option.iter
    (fun cex ->
      Cex.to_file cex_path cex;
      Format.printf "@.%a@.counterexample written to %s@." Cex.pp cex cex_path;
      match CexM.replay h cex with
      | CexM.Reproduced msg -> Format.printf "replay confirms: %s@." msg
      | CexM.Not_reproduced msg ->
        Format.printf "WARNING: replay does not reproduce: %s@." msg
      | CexM.Invalid msg ->
        Format.printf "WARNING: counterexample not executable: %s@." msg)
    c.Check.cex;
  report

let check_cmd algos (topo_name, h) max_states keep_going sample seed cex_path
    progress symmetry emit_json =
  (* progress goes to stderr (stdout stays machine-parseable); the same
     hook collects the frontier samples --emit-json writes *)
  let frontier = ref [] in
  let on_progress =
    if (not progress) && emit_json = None then None
    else
      Some
        (fun ~configs ~transitions ->
          if progress then
            Format.eprintf "  ... %d states, %d transitions@." configs
              transitions;
          frontier := (configs, transitions) :: !frontier)
  in
  let systems =
    List.map
      (fun name -> or_die (Systems.lookup ~what:"check" Systems.checkable name))
      (names_arg Systems.checkable algos)
  in
  (* one counterexample file per system: with several, each gets its
     system's name before the extension *)
  let cex_file (r : Systems.resolved) =
    match systems with
    | [ _ ] -> cex_path
    | _ ->
      Filename.remove_extension cex_path ^ "-" ^ r.Systems.name
      ^ Filename.extension cex_path
  in
  let reports =
    List.map
      (fun r ->
        let res =
          try
            Ok
              (check_one ~r ~topo_name ~h ~max_states ~keep_going ~sample ~seed
                 ~cex_path:(cex_file r) ~progress ~on_progress ~symmetry)
          with Invalid_argument msg | Failure msg -> Error msg
        in
        Format.printf "@.";
        or_die res)
      systems
  in
  if List.length reports > 1 then
    Format.printf "%a@." Table.pp (Mc_report.summary_table reports);
  Option.iter
    (fun file ->
      write_json file
        (Snapcc_mc.Check.to_json ~frontier:(List.rev !frontier) reports))
    emit_json;
  if List.exists (fun r -> Mc_report.outcome r = Mc_report.Fail) reports then
    exit 1

let check_algo_arg =
  let doc =
    Printf.sprintf "System(s) to check: %s, a comma-separated list, or `all'."
      (Systems.describe Systems.checkable)
  in
  Arg.(value & opt string "cc1" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

(* 8M default: with PR 6's packed single-word configuration keys this fits
   comfortably in memory, and it is what lets `--symmetry auto' finish
   instances (triangle3 cc3/vring: 23.9M configurations, 5.97M orbits
   under the admitted Z_4 counter gauge) whose full space stays capped. *)
let max_states_arg =
  Arg.(value & opt pos_int_conv 8_000_000
       & info [ "max-states" ] ~docv:"N"
           ~doc:"Memory cap on stored configurations (exceeding it makes \
                 the verdict INCOMPLETE).")

let keep_going_arg =
  Arg.(value & flag
       & info [ "keep-going" ]
           ~doc:"Explore the full space even after a safety violation \
                 (default: stop at the first one).")

let sample_arg =
  Arg.(value & opt nonneg_int_conv 0
       & info [ "sample" ] ~docv:"K"
           ~doc:"Instead of all domain configurations, explore from the \
                 canonical initial configuration plus K seeded random \
                 (post-fault) ones — for instances whose domain product is \
                 out of reach.  0 = exhaustive (default).")

let cex_out_arg =
  Arg.(value & opt string "ccsim-cex.txt"
       & info [ "cex" ] ~docv:"FILE"
           ~doc:"Where to write the minimized counterexample, if any.  \
                 With several systems, each failing one writes its own \
                 file, named $(docv) with -SYSTEM before the extension.")

let check_progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Report exploration progress on stderr.")

let check_symmetry_arg =
  let sym_conv : [ `Auto | `Off ] Arg.conv =
    Arg.enum [ ("auto", `Auto); ("off", `Off) ]
  in
  Arg.(value & opt sym_conv `Off
       & info [ "symmetry" ] ~docv:"auto|off"
           ~doc:"Quotient the exploration by the statically admitted \
                 symmetry group (`auto'): hypergraph automorphisms and \
                 declared internal symmetries are proven against the exact \
                 guard tables, then only one configuration per orbit is \
                 stored and the exploration steps over those tables.  \
                 Verdicts and counterexamples are unchanged (paths are \
                 lifted back to concrete runs).  Default `off'.")

let check_term =
  Term.(
    const check_cmd $ check_algo_arg $ topology_arg "triangle3" $ max_states_arg
    $ keep_going_arg $ sample_arg $ seed_arg $ cex_out_arg $ check_progress_arg
    $ check_symmetry_arg $ emit_json_arg)

(* ---- smc (statistical model checking) ---- *)

let smc_cmd (topo_name, h) algo_name daemon_name workload_name trials budget
    workers seed confidence disc sprt sprt_delta sprt_within emit_trace
    emit_json =
  let telemetry, finish_telemetry =
    make_hub ~emit_trace ~emit_json:None ~emit_catapult:None ()
  in
  let cfg =
    { Smc.Runner.algo = algo_name;
      topo_name;
      topo = h;
      daemon = daemon_name;
      workload = workload_name;
      disc;
      budget;
      trials;
      workers;
      seed;
      confidence;
      engine = `Packed;
      sprt;
      sprt_delta;
      sprt_within }
  in
  let r = Smc.Runner.run ?telemetry cfg in
  finish_telemetry ();
  let report = or_die r in
  (match emit_json with
   | Some file -> write_json file (Smc.Report.to_json report)
   | None -> ());
  Format.printf "%a@." Smc.Report.pp report;
  if not (Smc.Report.ok report) then exit 1

let smc_trials_arg =
  Arg.(value & opt pos_int_conv 1000
       & info [ "trials" ] ~docv:"N"
           ~doc:"Monte-Carlo trial count (positive; the truncation bound in \
                 SPRT mode).")

let smc_budget_arg =
  Arg.(value & opt pos_int_conv 1000
       & info [ "budget" ] ~docv:"N" ~doc:"Per-trial step horizon (positive).")

let smc_workers_arg =
  Arg.(value & opt pos_int_conv 1
       & info [ "workers" ] ~docv:"N"
           ~doc:"Forked worker processes (positive).  The merged report and \
                 trace are byte-identical for every worker count.")

let smc_confidence_arg =
  Arg.(value & opt probability_conv 0.95
       & info [ "confidence" ] ~docv:"P"
           ~doc:"Confidence level for every interval; in SPRT mode the error \
                 bounds are alpha = beta = 1 - P.")

let smc_sprt_arg =
  Arg.(value & opt (some probability_conv) None
       & info [ "sprt" ] ~docv:"THETA"
           ~doc:"SPRT mode: sequentially test \"P(stabilized within \
                 --sprt-within steps) >= THETA\" with early stopping \
                 instead of the fixed-size estimate; exits 1 when the claim \
                 is rejected.")

let smc_sprt_delta_arg =
  Arg.(value & opt probability_conv 0.02
       & info [ "sprt-delta" ] ~docv:"D"
           ~doc:"SPRT indifference half-width around THETA.")

let smc_sprt_within_arg =
  Arg.(value & opt (some pos_int_conv) None
       & info [ "sprt-within" ] ~docv:"N"
           ~doc:"Success horizon (steps) for the SPRT claim; default \
                 --budget.")

let smc_term =
  Term.(
    const smc_cmd $ topology_arg "ring9" $ algo_arg Systems.any $ daemon_arg
    $ workload_arg $ smc_trials_arg $ smc_budget_arg $ smc_workers_arg
    $ seed_arg $ smc_confidence_arg $ disc_arg $ smc_sprt_arg
    $ smc_sprt_delta_arg $ smc_sprt_within_arg $ emit_trace_arg
    $ emit_json_arg)

(* ---- replay ---- *)

let replay_cmd file =
  let cex =
    match Cex.of_file file with
    | c -> c
    | exception (Failure msg | Sys_error msg) -> or_die (Error msg)
  in
  let r =
    or_die
      (Systems.lookup ~what:"replay" Systems.checkable
         (Systems.name_over cex.Cex.algo cex.Cex.token))
  in
  let h = or_die (topology cex.Cex.topo) in
  let res =
    try
      let module S = (val r.Systems.sys) in
      let module CexM = Snapcc_mc.Counterexample.Make (S) in
      Format.printf "%a@.@.replaying through engine + monitors:@." Cex.pp cex;
      Ok
        (match CexM.replay ~trace:Format.std_formatter h cex with
        | CexM.Reproduced msg ->
          Format.printf "@.reproduced: %s@." msg;
          0
        | CexM.Not_reproduced msg ->
          Format.printf "@.NOT reproduced: %s@." msg;
          1
        | CexM.Invalid msg ->
          Format.printf "@.invalid trace: %s@." msg;
          2)
    with Invalid_argument msg -> Error msg
  in
  exit (or_die res)

let replay_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Counterexample file written by `ccsim check'.")

let replay_term = Term.(const replay_cmd $ replay_file_arg)

(* ---- stats (offline trace aggregation) ---- *)

let stats_cmd validate file =
  if file <> "-" && not (Sys.file_exists file) then
    or_die (Error (Printf.sprintf "no such file %S" file));
  if validate then begin
    (* strict whole-file JSON parse — the CI gate for BENCH_*.json and the
       other machine-readable artifacts *)
    let content = String.concat "\n" (read_lines file) in
    match Tele.Json.of_string content with
    | Ok _ -> Format.printf "%s: valid JSON@." file
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 1
  end
  else begin
    match Tele.Stats.of_jsonl (read_lines file) with
    | Ok (meta, summary) ->
      print_string (Tele.Json.to_string (Tele.Stats.to_json ?meta summary));
      print_newline ()
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 1
  end

let stats_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"JSONL trace written by `ccsim run --emit-trace' (or, with \
               --validate-json, any JSON file).  `-' reads standard input.")

let stats_validate_arg =
  Arg.(value & flag & info [ "validate-json" ]
         ~doc:"Only check that $(i,FILE) parses as JSON (whole-file, not \
               JSONL); exit 1 otherwise.")

let stats_term = Term.(const stats_cmd $ stats_validate_arg $ stats_file_arg)

(* ---- trace (offline causal analysis) ---- *)

module Causal = Snapcc_analysis.Causal

let trace_cmd file emit_json =
  let lines =
    match read_lines file with
    | lines -> lines
    | exception Sys_error msg ->
      Format.eprintf "ccsim: %s@." msg;
      exit 2
  in
  match Tele.Stats.events_of_jsonl lines with
  | Error msg ->
    Format.eprintf "ccsim: %s: %s@." file msg;
    exit 2
  | Ok events -> (
    match Causal.analyze events with
    | Error msg ->
      Format.eprintf "ccsim: %s: %s@." file msg;
      exit 2
    | Ok t ->
      let par = Causal.parity t events in
      (match emit_json with
       | Some out ->
         write_json out
           (Tele.Json.Obj
              [ ("causal", Causal.to_json t);
                ("parity", Causal.parity_to_json par) ])
       | None -> ());
      Format.printf "%a@." Causal.pp t;
      Format.printf "%a@." Causal.pp_parity par;
      if not (Causal.parity_ok par) then exit 1)

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"JSONL trace with vector-clock stamps (`ccsim mp' or `ccsim \
               net' with --emit-trace).  `-' reads standard input.")

let trace_emit_json_arg =
  Arg.(value & opt (some string) None
       & info [ "emit-json" ] ~docv:"FILE"
           ~doc:"Also write the causal summary and the parity report as one \
                 JSON object to $(docv).")

let trace_term = Term.(const trace_cmd $ trace_file_arg $ trace_emit_json_arg)

(* ---- list ---- *)

let list_cmd () =
  Format.printf "named topologies:@.";
  List.iter
    (fun (name, h) -> Format.printf "  %-10s %a@." name H.pp h)
    (Families.all_named ());
  Format.printf "  (plus ring<n>, path<n>, star<n>, clique<n>, single<k>, line<n>)@.@.";
  Format.printf "%a@.@.experiments:@." Systems.pp_catalog ();
  List.iter
    (fun (e : Registry.entry) -> Format.printf "  %-24s %s@." e.Registry.id e.Registry.title)
    Registry.all

let list_term = Term.(const list_cmd $ const ())

(* ---- main ---- *)

let cmds =
  [ Cmd.v
      (Cmd.info "run" ~doc:"Simulate a committee-coordination algorithm under monitors")
      run_term;
    Cmd.v (Cmd.info "bounds" ~doc:"Matching-theory bounds of a topology (Theorems 4-8)")
      bounds_term;
    Cmd.v
      (Cmd.info "mp"
         ~doc:"Simulate over the message-passing emulation (Section 7 future work)")
      mp_term;
    Cmd.v
      (Cmd.info "net"
         ~doc:"Run the algorithm as real node processes over fault-injecting \
               loopback links, with a live monitoring observer.  A zero-fault \
               run replays `ccsim mp' of the same seed event for event.")
      net_term;
    Cmd.v (Cmd.info "experiment" ~doc:"Run one of the paper's experiments") experiment_term;
    Cmd.v
      (Cmd.info "lint"
         ~doc:"Static footprint/race/priority analysis of the guarded-command \
               algorithms (exits non-zero on violations)")
      lint_term;
    Cmd.v
      (Cmd.info "check"
         ~doc:"Exhaustively model-check a system on a small topology: safety \
               closure from every initial configuration, plus \
               deadlock/livelock detection under weak fairness.  Exit codes: \
               0 verified (or incomplete without violation), 1 violation \
               found, 2 usage error.")
      check_term;
    Cmd.v
      (Cmd.info "smc"
         ~doc:"Statistical model checking: seeded Monte-Carlo trials from \
               corrupted starts drawn uniformly over the state-domain \
               product, estimating stabilization/waiting-time distributions \
               with Student-t and Wilson confidence intervals — or testing \
               a probabilistic claim sequentially (--sprt) with early \
               stopping.  Parallel (--workers) runs merge to byte-identical \
               reports.  Exit codes: 0 ok, 1 violation or rejected claim, 2 \
               usage error.")
      smc_term;
    Cmd.v
      (Cmd.info "orbits"
         ~doc:"Verify snapcc-orbits v1 symmetry certificates (written by \
               `ccsim lint --symmetry --orbits DIR'): structural checks on \
               generators, transports, orbits and group closure.  Exit \
               codes: 0 all valid, 1 any failure.")
      orbits_term;
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-execute a counterexample written by `ccsim check' through \
               the simulation engine and runtime monitors.  Exit codes: 0 \
               reproduced, 1 not reproduced, 2 invalid file.")
      replay_term;
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Aggregate a JSONL telemetry trace back to a run summary \
               (identical to the `ccsim run --emit-json' artifact), or \
               validate any JSON artifact with --validate-json.")
      stats_term;
    Cmd.v
      (Cmd.info "trace"
         ~doc:"Rebuild a run from the vector-clock stamps of a JSONL trace \
               alone: happens-before linearization, consistent cuts, \
               cut-consistent Spec verdicts, causal vs schedule concurrency \
               and the burst-to-recovery critical path — cross-checked \
               against the online observer's events of the same trace.  \
               Exit codes: 0 parity, 1 parity mismatch, 2 unusable trace.")
      trace_term;
    Cmd.v (Cmd.info "list" ~doc:"List topologies, algorithms and experiments") list_term;
  ]

(* Hidden entry point: `ccsim node --id I --connect PORT` is what `ccsim
   net' spawns per paper process.  Intercepted before cmdliner so it never
   appears in the help surface. *)
let node_main () =
  let id = ref (-1) in
  let port = ref (-1) in
  let argc = Array.length Sys.argv in
  let rec parse i =
    if i + 1 < argc then begin
      (match Sys.argv.(i) with
       | "--id" -> id := int_of_string Sys.argv.(i + 1)
       | "--connect" -> port := int_of_string Sys.argv.(i + 1)
       | a -> or_die (Error (Printf.sprintf "node: unknown argument %S" a)));
      parse (i + 2)
    end
  in
  (match parse 2 with
   | () -> ()
   | exception Failure _ ->
     or_die (Error "node: --id and --connect take integers"));
  if !id < 0 || !port <= 0 then
    or_die (Error "node: --id ID and --connect PORT are required");
  let fd = Net.Spawn.connect ~port:!port in
  Net.Node.serve ~id:!id fd;
  exit 0

let () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "node" then node_main ();
  let info =
    Cmd.info "ccsim" ~version:"1.0.0"
      ~doc:"Snap-stabilizing committee coordination simulator"
  in
  exit (Cmd.eval (Cmd.group info cmds))

(* Orchestration: resolve the algorithm through the catalog to a typed
   trial function (with optional packed hooks), run the trials — in
   one shot, or in fixed-size batches under SPRT — through the worker pool, emit the
   telemetry stream, build the report.

   Worker-count independence is arranged here once and relied on
   everywhere: the packed hooks are built in the parent (workers inherit
   them through fork), trial records come back in index order from the
   pool, the SPRT consumes them in index order in batches whose size
   never depends on the worker count, and telemetry is emitted only by
   the parent after the records are merged. *)

module H = Snapcc_hypergraph.Hypergraph
module Tele = Snapcc_telemetry
module Systems = Snapcc_mc.Systems

type cfg = {
  algo : string;
  topo_name : string;
  topo : H.t;
  daemon : string;
  workload : string;
  disc : int;
  budget : int;
  trials : int;
  workers : int;
  seed : int;
  confidence : float;
  engine : [ `Packed | `Closure ];
  sprt : float option;
  sprt_delta : float;
  sprt_within : int option;
}

(* The hooks are built here, in the parent, and forked workers inherit
   them: each worker then fills its own copy of the interner and the scan
   memo, which every trial it runs shares.  A memo answer equals the
   guard closures' answer, so records stay a pure function of (seed,
   trial). *)
let trial_fn cfg =
  match Systems.lookup ~what:"smc" Systems.any cfg.algo with
  | Error _ as e -> e
  | Ok r ->
    let (module S) = r.Systems.sys in
    let module T = Trial.Of (S) in
    let module Pk = Snapcc_mc.Packed.Make (S) in
    let packed =
      match cfg.engine with
      | `Closure -> None
      | `Packed -> Some (Pk.hooks (Pk.build cfg.topo))
    in
    Ok
      (fun i ->
        T.run ?packed ~seed:cfg.seed ~budget:cfg.budget ~daemon:cfg.daemon
          ~workload:cfg.workload ~disc:cfg.disc cfg.topo ~trial:i)

let validate cfg =
  if not (List.mem cfg.daemon ("sync" :: Trial.daemon_names)) then
    Error (Printf.sprintf "unknown daemon %S" cfg.daemon)
  else if not (List.mem cfg.workload Trial.workload_names) then
    Error (Printf.sprintf "unknown workload %S" cfg.workload)
  else Ok ()

(* Batch size for SPRT mode: the pool is invoked on fixed-size blocks of
   the trial index space, so the set of executed trials — and therefore
   the number the test consumed — is independent of the worker count. *)
let sprt_batch = 128

let collect cfg f =
  match cfg.sprt with
  | None ->
    (Pool.run ~workers:cfg.workers ~offset:0 ~count:cfg.trials f, None)
  | Some theta ->
    let spec =
      { Sprt.theta;
        delta = cfg.sprt_delta;
        alpha = 1. -. cfg.confidence;
        beta = 1. -. cfg.confidence }
    in
    let t = Sprt.create spec in
    let within = Option.value cfg.sprt_within ~default:cfg.budget in
    let success r =
      match r.Trial.stabilized with Some s -> s <= within | None -> false
    in
    let acc = ref [] in
    let off = ref 0 in
    while Sprt.verdict t = Sprt.Undecided && !off < cfg.trials do
      let n = min sprt_batch (cfg.trials - !off) in
      let rs = Pool.run ~workers:cfg.workers ~offset:!off ~count:n f in
      List.iter (fun r -> Sprt.feed t (success r)) rs;
      acc := rs :: !acc;
      off := !off + n
    done;
    (List.concat (List.rev !acc), Some (Sprt.outcome t))

let emit_telemetry hub cfg records =
  Tele.Hub.emit hub
    (Tele.Event.Run_start
       { algo = cfg.algo;
         daemon = cfg.daemon;
         workload = cfg.workload;
         seed = cfg.seed;
         n = H.n cfg.topo;
         m = H.m cfg.topo;
         topo = Snapcc_hypergraph.Hypergraph_io.to_string cfg.topo });
  List.iter
    (fun r ->
      Tele.Hub.emit hub
        (Tele.Event.Smc_trial
           { trial = r.Trial.trial;
             seed = r.Trial.seed;
             stabilized = r.Trial.stabilized;
             convenes = r.Trial.convenes;
             violations = r.Trial.violations;
             deadlocked = r.Trial.deadlocked;
             steps = r.Trial.steps }))
    records;
  Tele.Hub.emit hub
    (Tele.Event.Run_end
       { outcome = "smc"; steps = List.length records; rounds = 0 })

let run ?telemetry cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> (
    match trial_fn cfg with
    | Error _ as e -> e
    | Ok f ->
      let records, sprt = collect cfg f in
      Option.iter (fun hub -> emit_telemetry hub cfg records) telemetry;
      Ok
        (Report.build ~algo:cfg.algo ~topo:cfg.topo_name ~daemon:cfg.daemon
           ~workload:cfg.workload ~disc:cfg.disc ~budget:cfg.budget
           ~seed:cfg.seed ~confidence:cfg.confidence ?sprt records))

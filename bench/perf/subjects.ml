(* What the benchmark runs: every reference to the algorithm wiring
   (Algos, Systems.*_sys, Packed.Make, Trial.Of) lives in this
   one file, instantiated the way the `ccsim` commands instantiate it, so a
   refactor of those catalogs has exactly one benchmark file to follow. *)

module Families = Snapcc_hypergraph.Families
module X = Snapcc_experiments.Algos
module Systems = Snapcc_mc.Systems
module Packed = Snapcc_mc.Packed
module Smc = Snapcc_smc
module Net = Snapcc_net

(* The startup budget of `ccsim run`/`mp`/`smc` (bin/ccsim.ml's
   [cli_pack_cap], lib/smc/runner.ml's [pack_cap]). *)
let cli_pack_cap = 1 lsl 20

module Cursor_off = struct
  let cursor = false
end

module Cursor_on = struct
  let cursor = true
end

(* run-ring24: `ccsim run -a cc2 -t ring24 --engine closure` — the packed
   tables reject more than 16 processes. *)
module Run = X.Run_cc2

(* The driver scaling curve uses the same stack on rings of other sizes. *)
let ring = Families.pair_ring

(* mp-ring9 and net-ring5 deliver a pending snapshot with probability
   0.9, not `ccsim`'s default 0.5.  At 0.5 the message-passing emulation
   hits its stale-view mode (EXPERIMENTS.md, mp-future-work: Essential
   Discussion breaks): cc3 on ring9 in 7 of 188 80k-step runs, cc1 on
   ring5 in 2 of 400 16k-step runs.  At 0.9, none of 1000 seeds did for
   either, and a benchmark op must not fail. *)
let deliver_bias = 0.9

(* mp-ring9: `ccsim mp -a cc3 -t ring9 --deliver-bias 0.9` with its
   default packed engine. *)
module Mp = Snapcc_mp.Mp_engine.Make (X.Cc3)

let mp_algo_name = X.Cc3.name

module Pk_cc3 =
  Packed.Make (Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc3) (Cursor_on))

(* Hooks at the CLI cap, and the share of processes they cover. *)
let mp_hooks h =
  let pk = Pk_cc3.build ~cap:cli_pack_cap h in
  (Pk_cc3.hooks pk, Pk_cc3.coverage pk)

(* check-triangle3: `ccsim check -a cc1 --token vring --family triangle
   -n 3` — default 8M-state cap, tables built at 8x that. *)
module Check_sys =
  (val match Systems.find "cc1" with
       | Some e -> e.Systems.make "vring"
       | None -> failwith "cc1 missing from Snapcc_mc.Systems"
    : Snapcc_mc.System.S)

module Explore = Snapcc_mc.Explore.Make (Check_sys)
module Tables = Snapcc_mc.Tables.Make (Check_sys)

let check_max_states = 8_000_000
let check_table_cap = check_max_states * 8
let triangle3 = Families.pair_ring 3

(* smc-triangle3: `ccsim smc -a cc2-vring --family triangle -n 3 --daemon
   random --workload always --budget 150`. *)
let smc_cfg ~seed ~trials ~workers =
  { Smc.Runner.algo = "cc2-vring";
    topo_name = "triangle3";
    topo = triangle3;
    daemon = "random";
    workload = "always";
    disc = 2;
    budget = 150;
    trials;
    workers;
    seed;
    confidence = 0.95;
    engine = `Packed;
    sprt = None;
    sprt_delta = 0.02;
    sprt_within = None }

(* One smc trial outside the pool, with the hooks [Smc.Runner] builds. *)
module Trial = Smc.Trial.Of (X.Cc2_vring)

module Pk_cc2v =
  Packed.Make (Systems.Cc23_sys (Snapcc_token.Token_vring) (X.Cc2_vring) (Cursor_off))

let smc_hooks h =
  try Some (Pk_cc2v.hooks (Pk_cc2v.build ~cap:cli_pack_cap h)) with Failure _ -> None

let smc_trial ?packed (cfg : Smc.Runner.cfg) i =
  Trial.run ?packed ~seed:cfg.seed ~budget:cfg.budget ~daemon:cfg.daemon
    ~workload:cfg.workload ~disc:cfg.disc cfg.topo ~trial:i

(* The driver stack a trial runs ([Trial.Of] keeps its own private), for
   reading the packed engine's profile. *)
module Run_smc = X.Run_cc2_vring

(* net-ring5: `ccsim net -n 5 -a cc1 --fork --faults drop=0.05
   --deliver-bias 0.9` on the packed wire.  No delay or duplication (they
   make links non-FIFO, and the Spec monitor then flags stale-view
   convenes on 4 of 6 seeds), no corruption (Codec.corrupt_body can
   return the frame unchanged, see README.md) and no burst (on 2-3% of
   seeds the first convene after it is judged a synchronization
   violation): every op of the workload must succeed. *)
let net_cfg ~seed ~steps =
  { Net.Orchestrator.algo = "cc1";
    seed;
    init = `Canonical;
    deliver_bias;
    steps;
    plan = { Net.Faults.none with drop = 0.05 };
    burst = None;
    engine = `Packed }

let net_tag =
  match Net.Codec.algo_tag "cc1" with Some t -> t | None -> failwith "cc1 has no wire tag"

(* The incremental guard evaluation of [Runtime.Engine]: the step keeps one
   priority-scan result per process and rescans only the processes whose
   recorded read footprint changed.  Two checks pin it to the full scan:

   - pinned digests of (convened, final_obs, rounds, steps) over an
     algorithm x topology x daemon x workload x fault grid, recorded with
     the engine that rescanned every process twice per step;
   - a step-by-step oracle: executed labels are the pre-step
     [E.enabled_action], and the neutralized set is the pre-step
     [E.enabled] minus the executed minus the post-step [E.enabled], both
     uncached full scans — including for an algorithm that reads a
     non-neighbour's state and another process's [request_out].

   The packed path's scan memo is held to the closure engine step for
   step, across the engines that share one hooks value, and the cells it
   stores are checked against fresh closure scans; a system whose [canon]
   forgets a field the guards read must make the memo diverge. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Daemon = Snapcc_runtime.Daemon
module Engine = Snapcc_runtime.Engine
module Workload = Snapcc_workload.Workload
module Driver = Snapcc_experiments.Driver
module X = Snapcc_experiments.Algos
module Memo = Snapcc_runtime.Memo
module Systems = Snapcc_mc.Systems

let topologies =
  [ ("ring9", Families.pair_ring 9); ("ring24", Families.pair_ring 24);
    ("fig2", Families.fig2 ()) ]

(* constructors: the central daemon and both workloads carry state, so
   every run gets fresh ones *)
let daemons =
  [ (fun () -> Daemon.synchronous); Daemon.central;
    (fun () -> Daemon.random_subset ()) ]

let workloads =
  [ (fun h -> Workload.always_requesting h); Workload.bursty ~seed:5 ]

(* two corruption bursts, the second one while the first still settles *)
let fault_schedule h ~step =
  let n = H.n h in
  if step = 40 then [ 0; n / 2; n - 1 ] else if step = 95 then [ 1 ] else []

let digest (r : Driver.result) =
  let b = Buffer.create 512 in
  Printf.bprintf b "steps=%d rounds=%d |" r.Driver.steps r.Driver.rounds;
  List.iter (fun (s, e) -> Printf.bprintf b " %d:%d" s e) r.Driver.convened;
  Buffer.add_string b " |";
  Array.iter
    (fun o -> Printf.bprintf b " %d/%d" (Obs.code o) o.Obs.discussions)
    r.Driver.final_obs;
  Digest.to_hex (Digest.string (Buffer.contents b))

module Grid (A : Model.ALGO) = struct
  module R = Driver.Make (A)

  (* one digest per topology over the whole daemon x workload x fault
     grid, in grid order *)
  let digests ~steps topologies =
    List.map
      (fun (topo, h) ->
        let runs =
          List.concat_map
            (fun faulty ->
              List.concat_map
                (fun daemon ->
                  List.map
                    (fun workload ->
                      let faults = if faulty then Some (fault_schedule h) else None in
                      let init = if faulty then `Random else `Canonical in
                      digest
                        (R.run ~seed:11 ~init ?faults ~daemon:(daemon ())
                           ~workload:(workload h) ~steps h))
                    workloads)
                daemons)
            [ false; true ]
        in
        (topo, Digest.to_hex (Digest.string (String.concat "," runs))))
      topologies
end

module G_cc1 = Grid (X.Cc1)
module G_cc2 = Grid (X.Cc2)
module G_cc3 = Grid (X.Cc3)
module G_central = Grid (X.Central)
module G_dining = Grid (X.Dining)

let grid_steps = 200

let digests () =
  List.concat_map
    (fun (algo, ds) -> List.map (fun (topo, d) -> (algo ^ "/" ^ topo, d)) ds)
    [ ("cc1", G_cc1.digests ~steps:grid_steps topologies);
      ("cc2", G_cc2.digests ~steps:grid_steps topologies);
      ("cc3", G_cc3.digests ~steps:grid_steps topologies);
      ("central", G_central.digests ~steps:grid_steps topologies);
      ("dining", G_dining.digests ~steps:grid_steps topologies) ]

(* Recorded with the full-rescan engine (two closure scans per step). *)
let goldens =
  [ ("cc1/ring9", "4d7f2849343ab4ddb2c10153c899237b");
    ("cc1/ring24", "38b89aa935c1eb74f325eac503af3ff0");
    ("cc1/fig2", "a07cf7dfffcb99d632a86e08d184ee95");
    ("cc2/ring9", "8a24e4ef78916ee6663f1c039bb2dd97");
    ("cc2/ring24", "1f944f26094b750a2166c7e2cdfcdcca");
    ("cc2/fig2", "123c843b5aea4d6ac5680854f57538b6");
    ("cc3/ring9", "12e5d425a18d6e6d97d7bc2281ab1772");
    ("cc3/ring24", "84b2dfb57b90519cbffeb15b257394ee");
    ("cc3/fig2", "7ec910bb95a662ae568f2fca46294ea9");
    ("central/ring9", "cb00fbdf63c7abf9ee6dbd90a7de7d35");
    ("central/ring24", "5f6b834c6944a2843d1325b7726b86fc");
    ("central/fig2", "0a13a088ffa680fd21f0cfeeb51dcf33");
    ("dining/ring9", "92eda92d1b71f4312f8b4a759bbaecfe");
    ("dining/ring24", "6eccd0a03b2d88edcc00249af671b31b");
    ("dining/fig2", "e84f01a8254c8cf84ad6650c3b99c923") ]

let check_goldens goldens digests =
  List.iter2
    (fun (name, expected) (name', actual) ->
      Alcotest.(check string) "grid order" name name';
      Alcotest.(check string) name expected actual)
    goldens digests

let test_pinned_digests () = check_goldens goldens (digests ())

(* The variants the grid above leaves out — the virtual-ring and null
   token layers, the Widest edge choice, eager release and the
   token-only baseline — plus fig4, whose committees of four members and
   two sizes exercise MinEdges and the set kernels' maxima.  Recorded
   with the list-and-sort transcription of the guard macros. *)
module G_cc1_vring = Grid (X.Cc1_vring)
module G_cc2_vring = Grid (X.Cc2_vring)
module G_cc3_vring = Grid (X.Cc3_vring)
module G_cc1_widest = Grid (X.Cc1_widest)
module G_cc2_eager = Grid (X.Cc2_eager)
module G_token_only = Grid (X.Token_only)
module G_cc1_no_token = Grid (X.Cc1_no_token)

let variant_topologies =
  [ ("ring9", Families.pair_ring 9); ("fig4", Families.fig4 ()); ("fig2", Families.fig2 ()) ]

let variant_digests () =
  let fig4 = [ ("fig4", Families.fig4 ()) ] in
  List.concat_map
    (fun (algo, ds) -> List.map (fun (topo, d) -> (algo ^ "/" ^ topo, d)) ds)
    [ ("cc1-vring", G_cc1_vring.digests ~steps:grid_steps variant_topologies);
      ("cc2-vring", G_cc2_vring.digests ~steps:grid_steps variant_topologies);
      ("cc3-vring", G_cc3_vring.digests ~steps:grid_steps variant_topologies);
      ("cc1-widest", G_cc1_widest.digests ~steps:grid_steps variant_topologies);
      ("cc2-eager", G_cc2_eager.digests ~steps:grid_steps variant_topologies);
      ("token-only", G_token_only.digests ~steps:grid_steps variant_topologies);
      ("cc1-no-token", G_cc1_no_token.digests ~steps:grid_steps variant_topologies);
      ("cc1", G_cc1.digests ~steps:grid_steps fig4);
      ("cc3", G_cc3.digests ~steps:grid_steps fig4) ]

let variant_goldens =
  [ ("cc1-vring/ring9", "167f8d293de8ddddacacc799beabc4d9");
    ("cc1-vring/fig4", "33d56d5e4529975c879293d674312932");
    ("cc1-vring/fig2", "c39af1246d376e5f146844478436bdac");
    ("cc2-vring/ring9", "feb56f487375ba5f5b1b61ff84083b87");
    ("cc2-vring/fig4", "f9530f211fdc7cdc1d14d66959a9b26a");
    ("cc2-vring/fig2", "2236e4b91be9125a521d126679ab1528");
    ("cc3-vring/ring9", "8da8d8b6de5b952ee0b8e7fd45dd89c6");
    ("cc3-vring/fig4", "4b55cf4336796a822d9434d7334b1178");
    ("cc3-vring/fig2", "f76c7a700b5f5fab47d1a7cfdcc9ea8f");
    ("cc1-widest/ring9", "4d7f2849343ab4ddb2c10153c899237b");
    ("cc1-widest/fig4", "020d2b02117c96377e75c21d1409f172");
    ("cc1-widest/fig2", "80c69e088578fe3537df48deed4b1c3d");
    ("cc2-eager/ring9", "9a751e4f5c11e929681ff0b29fb133bb");
    ("cc2-eager/fig4", "206211a87cc0fc013529b16c5c0ca46e");
    ("cc2-eager/fig2", "c67b28ab650f0f0cba52904dddb6b793");
    ("token-only/ring9", "16e4ac305690236b217112d253e2f06d");
    ("token-only/fig4", "6fe432aa1b3c371c9625aa43d3c52ab4");
    ("token-only/fig2", "fb3f257f7201dd7670d7bb545ff3d42a");
    ("cc1-no-token/ring9", "8aded4be362e354b33069ed0f94a6924");
    ("cc1-no-token/fig4", "a22059d727f1c590e54aa0e243bdc6b7");
    ("cc1-no-token/fig2", "60ead38cad7e653507e5ba48e0e86d2d");
    ("cc1/fig4", "020d2b02117c96377e75c21d1409f172");
    ("cc3/fig4", "97236def4068e66da62377866a0715a0") ]

let test_variant_digests () = check_goldens variant_goldens (variant_digests ())

(* ---- step-by-step oracle ---- *)

module Oracle (A : Model.ALGO) = struct
  module E = Engine.Make (A)

  (* Steps [E.step] against the uncached full scans, with a corruption at
     a third of the horizon and a wholesale [set_states] at two thirds. *)
  let run ~name ?packed ~daemon ~workload ~init ~steps h =
    let n = H.n h in
    let eng = E.create ~seed:3 ~init ?packed ~daemon h in
    let rng = Random.State.make [| 17 |] in
    let obs = ref (E.obs eng) in
    for i = 0 to steps - 1 do
      if i = steps / 3 then E.corrupt eng ~victims:[ 0; n / 2 ] ();
      if i = 2 * steps / 3 then
        E.set_states eng (Array.init n (A.random_init h rng));
      if i = steps / 3 || i = 2 * steps / 3 then obs := E.obs eng;
      let inputs = Workload.inputs workload !obs in
      let before = E.enabled eng ~inputs in
      let labels = List.map (fun p -> (p, E.enabled_action eng ~inputs p)) before in
      let r = E.step eng ~inputs in
      let at = Printf.sprintf "%s step %d" name i in
      Alcotest.(check bool) (at ^ ": terminal") (before = []) r.Model.terminal;
      if not r.Model.terminal then begin
        let after = E.enabled eng ~inputs in
        let fired = List.map fst r.Model.executed in
        Alcotest.(check (list int)) (at ^ ": executed") r.Model.selected fired;
        List.iter
          (fun (p, l) ->
            Alcotest.(check (option string)) (at ^ ": label") (List.assoc p labels)
              (Some l))
          r.Model.executed;
        let neutralized =
          List.filter (fun p -> not (List.mem p fired || List.mem p after)) before
        in
        Alcotest.(check (list int)) (at ^ ": neutralized") neutralized
          r.Model.neutralized;
        obs := E.obs eng
      end;
      Workload.observe workload ~step:i !obs
    done;
    eng

  let sweep ~algo ?packed ~steps (topo, h) =
    List.iteri
      (fun d daemon ->
        List.iteri
          (fun w workload ->
            List.iter
              (fun init ->
                let name =
                  Printf.sprintf "%s/%s/d%d/w%d/%s" algo topo d w
                    (if init = `Canonical then "canon" else "rand")
                in
                ignore
                  (run ~name ?packed ~daemon:(daemon ()) ~workload:(workload h)
                     ~init ~steps h))
              [ `Canonical; `Random ])
          workloads)
      daemons
end

module O_cc1 = Oracle (X.Cc1)
module O_cc2 = Oracle (X.Cc2)
module O_cc3 = Oracle (X.Cc3)
module O_central = Oracle (X.Central)
module O_dining = Oracle (X.Dining)

let small_topologies = [ ("ring9", Families.pair_ring 9); ("fig2", Families.fig2 ()) ]

let test_oracle_closures () =
  List.iter
    (fun topo ->
      O_cc1.sweep ~algo:"cc1" ~steps:90 topo;
      O_cc2.sweep ~algo:"cc2" ~steps:90 topo;
      O_cc3.sweep ~algo:"cc3" ~steps:90 topo;
      O_central.sweep ~algo:"central" ~steps:90 topo;
      O_dining.sweep ~algo:"dining" ~steps:90 topo)
    small_topologies

module Cursor_off = struct
  let cursor = false
end

module Cursor_on = struct
  let cursor = true
end

module Sys_cc2 = Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc2) (Cursor_off)
module Pk_cc1 = Snapcc_mc.Packed.Make (Systems.Cc1_sys (Snapcc_token.Token_tree) (X.Cc1))
module Pk_cc2 = Snapcc_mc.Packed.Make (Sys_cc2)
module Pk_cc3 =
  Snapcc_mc.Packed.Make (Systems.Cc23_sys (Snapcc_token.Token_tree) (X.Cc3) (Cursor_on))

(* Memo-served entries take N[p] as their footprint. *)
let test_oracle_packed () =
  let single2 = Families.single 2 and path3 = Families.path 3 in
  let pk2 = Pk_cc2.hooks (Pk_cc2.build single2) in
  O_cc1.sweep ~algo:"cc1-packed" ~packed:(Pk_cc1.hooks (Pk_cc1.build single2))
    ~steps:120 ("single2", single2);
  O_cc2.sweep ~algo:"cc2-packed" ~packed:pk2 ~steps:120 ("single2", single2);
  O_cc3.sweep ~algo:"cc3-packed" ~packed:(Pk_cc3.hooks (Pk_cc3.build single2))
    ~steps:120 ("single2", single2);
  O_cc1.sweep ~algo:"cc1-packed" ~packed:(Pk_cc1.hooks (Pk_cc1.build path3))
    ~steps:120 ("path3", path3);
  let eng =
    O_cc2.run ~name:"cc2-packed/single2" ~packed:pk2 ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting single2) ~init:`Random ~steps:60 single2
  in
  Alcotest.(check bool) "still packed" true (O_cc2.E.engine_kind eng = `Packed);
  Alcotest.(check bool) "memo answers served" true
    (List.assoc "engine_scan_hits" (O_cc2.E.profile eng) > 0)

(* Reads the state of [p + 2], which is not a neighbour on a pair ring of
   five or more, and the [request_out] of [p + 1]: only a footprint built
   from the recorded reads sees either dependency. *)
module Far = struct
  type state = int

  let name = "far-reader"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng 4
  let observe _ _ _ = Obs.make Obs.Idle

  let actions h =
    let n = H.n h in
    let me (ctx : state Model.ctx) = ctx.Model.read ctx.Model.self in
    let far (ctx : state Model.ctx) = ctx.Model.read ((ctx.Model.self + 2) mod n) in
    [ { Model.label = "copy";
        guard = (fun ctx -> far ctx <> me ctx);
        apply = far };
      { Model.label = "bump";
        guard =
          (fun ctx -> ctx.Model.inputs.Model.request_out ((ctx.Model.self + 1) mod n));
        apply = (fun ctx -> (me ctx + 1) mod 4) } ]
end

module O_far = Oracle (Far)

let test_oracle_far_reads () =
  let h = Families.pair_ring 7 in
  List.iteri
    (fun d daemon ->
      let workload =
        Workload.scripted ~name:"far"
          ~request_in:(fun ~step:_ _ -> false)
          ~request_out:(fun ~step q -> (step + q) mod 3 = 0)
          ()
      in
      ignore
        (O_far.run ~name:(Printf.sprintf "far/d%d" d) ~daemon:(daemon ()) ~workload
           ~init:`Random ~steps:150 h))
    daemons

(* The cache does serve entries on a ring, where each execution dirties
   only its readers. *)
let test_profile_reuse () =
  let h = Families.pair_ring 24 in
  let eng =
    O_cc2.run ~name:"cc2/ring24" ~daemon:(Daemon.random_subset ())
      ~workload:(Workload.always_requesting h) ~init:`Canonical ~steps:60 h
  in
  let profile = O_cc2.E.profile eng in
  let reused = List.assoc "engine_scan_reused" profile in
  Alcotest.(check bool) "entries reused" true (reused > 0);
  Alcotest.(check int) "closure engine consults no memo" 0
    (List.assoc "engine_scan_hits" profile + List.assoc "engine_scan_fallbacks" profile)

(* ---- the scan memo, shared by consecutive engines ---- *)

module Shared (S : Snapcc_mc.System.S) = struct
  module E = Engine.Make (S)
  module Pk = Snapcc_mc.Packed.Make (S)

  (* A fresh closure scan of [p] on [eng]'s configuration: the chosen
     action, and whether every read stayed inside N[p]. *)
  let closure_scan actions h eng ~inputs p =
    let local = ref true in
    let note q = if q <> p && not (H.are_neighbors h p q) then local := false in
    let ctx =
      { Model.h;
        self = p;
        read = (fun q -> note q; E.state eng q);
        inputs =
          { Model.request_in = (fun q -> note q; inputs.Model.request_in q);
            request_out = (fun q -> note q; inputs.Model.request_out q) } }
    in
    let a = Model.priority actions ctx in
    (a, !local)

  (* Every cell the memo holds for the current configuration came from a
     scan that stayed inside N[p] and agrees with a fresh one.  Returns
     how many of the current scans read outside N[p]. *)
  let check_cells ~at actions (hooks : S.state Model.packed) h eng ~inputs =
    let n = H.n h in
    let ids = Array.init n (fun q -> hooks.Model.pk_intern q (E.state eng q)) in
    let modes = Array.init n (Model.mode_of inputs) in
    let memo = hooks.Model.pk_memo in
    let nonlocal = ref 0 in
    for p = 0 to n - 1 do
      let a, local = closure_scan actions h eng ~inputs p in
      if not local then incr nonlocal;
      let key = Memo.key memo ~ids ~modes p in
      let stored = if key < 0 then -2 else Memo.find memo p key in
      if stored >= -1 then begin
        Alcotest.(check bool) (Printf.sprintf "%s: p%d stored cell is local" at p) true local;
        Alcotest.(check int) (Printf.sprintf "%s: p%d stored answer" at p) a stored
      end
    done;
    !nonlocal

  type outcome = {
    diverged : int option;  (* first step whose report or configuration differs *)
    hits : int;
    fallbacks : int;
    nonlocal : int;  (* current scans that read outside N[p], if checked *)
  }

  let standard_workloads k h =
    if k mod 2 = 0 then Workload.always_requesting h else Workload.bursty ~seed:(31 + k) h

  (* [engines] consecutive memo engines built from one hooks value, the way
     smc trials share it, each stepped in lockstep with a closure engine of
     the same seed: random start, the always/bursty workloads in turn (or
     [workload k h] for engine [k]), a corruption at a third of the
     horizon and a [set_states] at two thirds. *)
  let lockstep ?(cells = false) ?(workload = standard_workloads) ~name ~daemon ~engines
      ~steps h =
    let hooks = Pk.hooks (Pk.build h) in
    let actions = Array.of_list (S.actions h) in
    let n = H.n h in
    let diverged = ref None and nonlocal = ref 0 in
    let hits = ref 0 and fallbacks = ref 0 in
    for k = 0 to engines - 1 do
      let seed = 31 + k in
      let ec = E.create ~seed ~init:`Random ~daemon:(daemon ()) h in
      let em = E.create ~seed ~init:`Random ~packed:hooks ~daemon:(daemon ()) h in
      let wc = workload k h and wm = workload k h in
      let rng = Random.State.make [| seed |] in
      (try
         for i = 0 to steps - 1 do
           if i = steps / 3 then
             List.iter (fun e -> E.corrupt e ~victims:[ 0; n / 2 ] ()) [ ec; em ];
           if i = 2 * steps / 3 then begin
             let states = Array.init n (S.random_init h rng) in
             List.iter (fun e -> E.set_states e states) [ ec; em ]
           end;
           let inputs_c = Workload.inputs wc (E.obs ec) in
           let inputs_m = Workload.inputs wm (E.obs em) in
           if cells then
             nonlocal :=
               !nonlocal
               + check_cells ~at:(Printf.sprintf "%s/e%d step %d" name k i) actions
                   hooks h em ~inputs:inputs_m;
           let rc = E.step ec ~inputs:inputs_c in
           let rm = E.step em ~inputs:inputs_m in
           if rc <> rm || not (Array.for_all2 Obs.equal (E.obs ec) (E.obs em)) then begin
             diverged := Some ((k * steps) + i);
             raise Exit
           end;
           Workload.observe wc ~step:i (E.obs ec);
           Workload.observe wm ~step:i (E.obs em)
         done
       with Exit -> ());
      let count key = List.assoc key (E.profile em) in
      hits := !hits + count "engine_scan_hits";
      fallbacks := !fallbacks + count "engine_scan_fallbacks"
    done;
    { diverged = !diverged; hits = !hits; fallbacks = !fallbacks; nonlocal = !nonlocal }
end

let resolve name =
  match Systems.resolve name with
  | Some r -> r.Systems.sys
  | None -> Alcotest.failf "%s is not in the catalog" name

let no_divergence name = function
  | None -> ()
  | Some step -> Alcotest.failf "%s: memo run diverged from closures at step %d" name step

(* One hooks value per topology serves three engines, every report equal
   to the closure engine's. *)
let test_memo_shared_hooks () =
  List.iter
    (fun algo ->
      let (module S) = resolve algo in
      let module L = Shared (S) in
      List.iter
        (fun (topo, h) ->
          let name = algo ^ "/" ^ topo in
          let o =
            L.lockstep ~name ~daemon:(fun () -> Daemon.random_subset ()) ~engines:4
              ~steps:300 h
          in
          no_divergence name o.L.diverged;
          Alcotest.(check bool) (name ^ ": memo hits") true (o.L.hits > 0))
        [ ("triangle3", Families.pair_ring 3); ("ring5", Families.pair_ring 5);
          ("fig1", Families.fig1 ()) ])
    [ "cc1-tree"; "cc1-vring"; "cc2-tree"; "cc2-vring"; "cc3-tree"; "cc3-vring" ]

(* [Far] as a system: its "bump" scans read only a neighbour's
   [request_out], so the memo stores them, and must key that neighbour's
   mode; its "copy" scans read a non-neighbour and are never stored. *)
module Far_sys = struct
  include Far

  let domain _ _ = [ 0; 1; 2; 3 ]
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

module L_far = Shared (Far_sys)

(* vring reads [pred p], which is not a neighbour on fig1, and the
   centralized baseline's coordinator reads beyond its neighbours: such
   scans keep falling back, and no cell is ever stored for them. *)
let test_memo_nonlocal_reads () =
  let fig1 = Families.fig1 () in
  List.iter
    (fun (algo, daemon) ->
      let (module S) = resolve algo in
      let module L = Shared (S) in
      let name = algo ^ "/fig1" in
      let o = L.lockstep ~cells:true ~name ~daemon ~engines:2 ~steps:120 fig1 in
      no_divergence name o.L.diverged;
      Alcotest.(check bool) (name ^ ": non-local scans met") true (o.L.nonlocal > 0);
      Alcotest.(check bool) (name ^ ": fallbacks") true (o.L.fallbacks > 0))
    [ ("cc1-vring", fun () -> Daemon.random_subset ());
      ("cc2-vring", Daemon.central);
      ("cc3-vring", fun () -> Daemon.synchronous);
      ("central", fun () -> Daemon.random_subset ()) ];
  let workload _ _ =
    Workload.scripted ~name:"far"
      ~request_in:(fun ~step:_ _ -> false)
      ~request_out:(fun ~step q -> (step + q) mod 3 = 0)
      ()
  in
  let o =
    L_far.lockstep ~cells:true ~workload ~name:"far/ring7"
      ~daemon:(fun () -> Daemon.random_subset ()) ~engines:2 ~steps:150
      (Families.pair_ring 7)
  in
  no_divergence "far/ring7" o.L_far.diverged;
  Alcotest.(check bool) "far/ring7: non-local scans met" true (o.L_far.nonlocal > 0);
  Alcotest.(check bool) "far/ring7: memo hits" true (o.L_far.hits > 0)

(* A seeded defect: a [canon] that also forgets CC2's lock flag, which the
   guards read.  The memo then serves one configuration's answer to
   another that the guards tell apart, and the run must diverge. *)
module Cc2_lk_blind = struct
  include Sys_cc2

  let canon h p s =
    let c, t = Sys_cc2.canon h p s in
    ({ c with Snapcc_core.Cc23.lk = false }, t)
end

module L_lk_blind = Shared (Cc2_lk_blind)

let test_memo_seeded_defect () =
  let o =
    L_lk_blind.lockstep ~name:"cc2-lk-blind" ~daemon:(fun () -> Daemon.random_subset ())
      ~engines:4 ~steps:150 (Families.pair_ring 5)
  in
  Alcotest.(check bool) "memo run diverges from closures" true (o.L_lk_blind.diverged <> None)

(* Keys that differ only in the first member of N[p] (p's own id and
   mode, the key's top bits) must stay apart as p's table doubles: every
   key added so far is found after each power of two, and an absent one
   is not. *)
let test_memo_first_member_keys () =
  let h = Families.pair_ring 5 in
  Alcotest.(check int) "three members in N[0]" 2 (Array.length (H.neighbors h 0));
  let memo = Memo.create ~cap:max_int h in
  let ids = Array.make (H.n h) 3 and modes = Array.make (H.n h) 1 in
  let key id mode =
    ids.(0) <- id;
    modes.(0) <- mode;
    Memo.key memo ~ids ~modes 0
  in
  let answer id mode = ((4 * id) + mode) mod 5 - 1 in
  let verify upto =
    for id = 0 to upto do
      for mode = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "id %d, mode %d" id mode)
          (answer id mode)
          (Memo.find memo 0 (key id mode))
      done
    done
  in
  for id = 0 to 4095 do
    for mode = 0 to 3 do
      Memo.add memo 0 (key id mode) (answer id mode)
    done;
    if id land (id + 1) = 0 then verify id
  done;
  Alcotest.(check int) "absent key" (-2) (Memo.find memo 0 (key 4096 0))

let suite =
  [ ( "engine cache",
      [ Alcotest.test_case "pinned grid digests" `Quick test_pinned_digests;
        Alcotest.test_case "pinned grid digests: algorithm variants" `Quick
          test_variant_digests;
        Alcotest.test_case "stepwise oracle: closures" `Quick test_oracle_closures;
        Alcotest.test_case "stepwise oracle: packed memo" `Quick test_oracle_packed;
        Alcotest.test_case "stepwise oracle: non-neighbour reads" `Quick
          test_oracle_far_reads;
        Alcotest.test_case "profile counts reused entries" `Quick test_profile_reuse;
        Alcotest.test_case "memo shared across engines" `Quick test_memo_shared_hooks;
        Alcotest.test_case "memo stores local cells only" `Quick test_memo_nonlocal_reads;
        Alcotest.test_case "memo exposes a lossy canon" `Quick test_memo_seeded_defect;
        Alcotest.test_case "memo keys differing in the first member" `Quick
          test_memo_first_member_keys ] ) ]

(* Engine semantics: priorities, atomic steps, rounds, neutralization,
   daemon contract, locality checking, fault injection (paper §2.2). *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Obs = Snapcc_runtime.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A counter algorithm with two overlapping actions, to pin down the
   priority rule: the action appearing LATER in the code wins (§2.2). *)
module Toy = struct
  type state = { v : int; last : string }

  let name = "toy"
  let pp_state ppf s = Format.fprintf ppf "%d(%s)" s.v s.last
  let equal_state a b = a = b
  let init _ _ = { v = 0; last = "" }
  let random_init _ rng _ = { v = Random.State.int rng 5; last = "" }

  let actions _h =
    [ { Model.label = "low";
        guard = (fun ctx -> (ctx.Model.read ctx.Model.self).v < 3);
        apply =
          (fun ctx ->
            let s = ctx.Model.read ctx.Model.self in
            { v = s.v + 1; last = "low" }) };
      { Model.label = "high";
        guard = (fun ctx -> (ctx.Model.read ctx.Model.self).v < 3);
        apply =
          (fun ctx ->
            let s = ctx.Model.read ctx.Model.self in
            { v = s.v + 1; last = "high" }) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Toy_engine = Snapcc_runtime.Engine.Make (Toy)

let pair () = H.create ~n:2 [ [ 0; 1 ] ]

let test_priority () =
  let eng = Toy_engine.create ~daemon:(Daemon.central ()) (pair ()) in
  let report = Toy_engine.step eng ~inputs:Model.no_inputs in
  (match report.Model.executed with
   | [ (_, label) ] -> Alcotest.(check string) "later action wins" "high" label
   | _ -> Alcotest.fail "expected exactly one execution");
  check "not terminal" false report.Model.terminal

let test_termination () =
  let eng = Toy_engine.create ~daemon:Daemon.synchronous (pair ()) in
  let outcome =
    Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) ()
  in
  check "terminates" true (outcome = `Terminal);
  check_int "both counters saturated" 3 (Toy_engine.state eng 0).Toy.v;
  check "terminal flag" true (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let r = Toy_engine.step eng ~inputs:Model.no_inputs in
  check "terminal step is a no-op" true r.Model.terminal

(* Both processes copy each other's value in the same synchronous step:
   statements must read the pre-step configuration, so values swap. *)
module Swap = struct
  type state = int

  let name = "swap"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ p = p
  let random_init _ rng _ = Random.State.int rng 10

  let other ctx = if ctx.Model.self = 0 then 1 else 0

  let actions _h =
    [ { Model.label = "copy";
        guard = (fun ctx -> ctx.Model.read ctx.Model.self <> ctx.Model.read (other ctx));
        apply = (fun ctx -> ctx.Model.read (other ctx)) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Swap_engine = Snapcc_runtime.Engine.Make (Swap)

let test_atomic_step () =
  let eng = Swap_engine.create ~daemon:Daemon.synchronous (pair ()) in
  (* initial: [|0; 1|] *)
  let _ = Swap_engine.step eng ~inputs:Model.no_inputs in
  Alcotest.(check (array int))
    "swap, not overwrite" [| 1; 0 |] (Swap_engine.states eng)

let test_neutralization () =
  (* process 1 is enabled iff values differ; selecting only process 0
     equalizes them, neutralizing process 1 *)
  let script ~step:_ ~enabled =
    if List.mem 0 enabled then [ 0 ] else enabled
  in
  let eng =
    Swap_engine.create ~daemon:(Daemon.of_fun ~name:"only-0" script) (pair ())
  in
  let report = Swap_engine.step eng ~inputs:Model.no_inputs in
  Alcotest.(check (list int)) "neutralized" [ 1 ] report.Model.neutralized;
  Alcotest.(check (list int)) "selected" [ 0 ] report.Model.selected

let test_round_counting () =
  (* both processes of Toy stay enabled until v=3; under the central daemon
     a round completes every 2 steps (each process executes once) *)
  let eng = Toy_engine.create ~daemon:(Daemon.central ()) (pair ()) in
  let _ = Toy_engine.run eng ~steps:6 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check_int "3 rounds after 6 central steps" 3 (Toy_engine.rounds eng);
  let eng2 = Toy_engine.create ~daemon:Daemon.synchronous (pair ()) in
  let _ = Toy_engine.run eng2 ~steps:3 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check_int "1 round per synchronous step" 3 (Toy_engine.rounds eng2)

let test_daemon_contract () =
  let bad ~step:_ ~enabled:_ = [] in
  let eng = Toy_engine.create ~daemon:(Daemon.of_fun ~name:"empty" bad) (pair ()) in
  Alcotest.check_raises "empty selection rejected"
    (Invalid_argument "daemon selected an empty set") (fun () ->
      ignore (Toy_engine.step eng ~inputs:Model.no_inputs));
  let disabled ~step:_ ~enabled:_ = [ 0 ] in
  let eng2 =
    Toy_engine.create ~daemon:(Daemon.of_fun ~name:"disabled" disabled) (pair ())
  in
  let _ = Toy_engine.run eng2 ~steps:3 ~inputs_at:(fun _ -> Model.no_inputs) () in
  (* process 0 saturates at 3; selecting it afterwards must be rejected *)
  Alcotest.check_raises "disabled selection rejected"
    (Invalid_argument "daemon selected disabled process 0") (fun () ->
      ignore (Toy_engine.step eng2 ~inputs:Model.no_inputs))

(* An algorithm that illegally reads a non-neighbor's state. *)
module Peeker = struct
  type state = int

  let name = "peeker"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ _ _ = 0

  let actions h =
    [ { Model.label = "peek";
        guard =
          (fun ctx ->
            (* vertex 0 reads the far end of the path *)
            ctx.Model.self = 0 && ctx.Model.read (H.n h - 1) >= 0);
        apply = (fun ctx -> ctx.Model.read ctx.Model.self + 1) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

module Peeker_engine = Snapcc_runtime.Engine.Make (Peeker)

let test_locality_check () =
  let h = Families.path 3 in
  let eng =
    Peeker_engine.create ~check_locality:true ~daemon:Daemon.synchronous h
  in
  (match Peeker_engine.step eng ~inputs:Model.no_inputs with
   | exception Failure msg ->
     check "mentions violation" true
       (String.length msg > 0
        && String.sub msg 0 (min 8 (String.length msg)) = "locality")
   | _ -> Alcotest.fail "expected locality failure");
  (* without the check the same algorithm runs *)
  let eng2 = Peeker_engine.create ~daemon:Daemon.synchronous h in
  let r = Peeker_engine.step eng2 ~inputs:Model.no_inputs in
  check "ran" true (r.Model.executed <> [])

let test_corrupt () =
  let eng = Toy_engine.create ~seed:5 ~daemon:Daemon.synchronous (pair ()) in
  let _ = Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check "terminal before fault" true
    (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let rng = Random.State.make [| 99 |] in
  (* redraw states until the fault actually re-enables someone *)
  let rec inject tries =
    Toy_engine.corrupt eng ~rng ~victims:[ 0; 1 ] ();
    if Toy_engine.is_terminal eng ~inputs:Model.no_inputs && tries > 0 then
      inject (tries - 1)
  in
  inject 20;
  check "fault re-enabled the system" false
    (Toy_engine.is_terminal eng ~inputs:Model.no_inputs);
  let outcome = Toy_engine.run eng ~steps:100 ~inputs_at:(fun _ -> Model.no_inputs) () in
  check "recovers to terminal" true (outcome = `Terminal)

(* A rejected corruption is checked before the engine draws or writes
   anything: after twenty steps, a call naming a missing process leaves
   the rng, the fairness counters and the configuration as they were, so
   the engine steps on exactly like one that never saw the call. *)
module Cc2_engine = Snapcc_runtime.Engine.Make (Snapcc_experiments.Algos.Cc2)

let test_corrupt_rejected () =
  let module Workload = Snapcc_workload.Workload in
  let h = Families.fig1 () in
  let engine () =
    ( Cc2_engine.create ~seed:3 ~init:`Random
        ~daemon:(Daemon.random_subset ()) h,
      Workload.always_requesting h )
  in
  let touched, w_t = engine () and clean, w_c = engine () in
  let step eng w =
    let inputs = Workload.inputs w (Cc2_engine.obs eng) in
    let r = Cc2_engine.step eng ~inputs in
    Workload.observe w ~step:r.Model.step (Cc2_engine.obs eng);
    r
  in
  let same_obs () =
    Array.for_all2 Obs.equal (Cc2_engine.obs touched) (Cc2_engine.obs clean)
  in
  for _ = 1 to 20 do
    ignore (step touched w_t);
    ignore (step clean w_c)
  done;
  (match Cc2_engine.corrupt touched ~victims:[ 0; 99 ] () with
   | () -> Alcotest.fail "victim 99 must be rejected"
   | exception Invalid_argument _ -> ());
  check "observation untouched" true (same_obs ());
  for i = 1 to 200 do
    check (Printf.sprintf "step %d after the call: same report" i) true
      (step touched w_t = step clean w_c)
  done;
  check "same final observation" true (same_obs ())

let test_daemons_select_subset () =
  let daemons = Daemon.all_standard () in
  List.iter
    (fun d ->
      let eng = Toy_engine.create ~seed:1 ~daemon:d (pair ()) in
      let seen_ok = ref true in
      let on_step _ (r : Model.step_report) =
        if r.Model.selected = [] then seen_ok := false;
        List.iter (fun p -> if p < 0 || p > 1 then seen_ok := false) r.Model.selected
      in
      let _ = Toy_engine.run eng ~steps:50 ~inputs_at:(fun _ -> Model.no_inputs) ~on_step () in
      check (Daemon.name d ^ " selects valid subsets") true !seen_ok)
    daemons

(* Recording keeps every entry in order, fault boundaries included.  The
   convene ledger is Spec's: test_spec "fault exemption" and
   test_telemetry "fault does not fabricate convenes" pin its accounting
   at fault boundaries. *)
let fake_trace () =
  let h = pair () in
  let looking = Obs.make Obs.Looking ~pointer:(Some 0) in
  let tr = Snapcc_runtime.Trace.create h ~initial:[| looking; looking |] in
  let fake step executed obs =
    Snapcc_runtime.Trace.record tr
      { Model.step; selected = List.map fst executed; executed;
        neutralized = []; round = 0; terminal = false }
      obs
  in
  (tr, fake)

let waiting = Obs.make Obs.Waiting ~pointer:(Some 0)

let test_trace_record () =
  let tr, fake = fake_trace () in
  let looking = Obs.make Obs.Looking ~pointer:(Some 0) in
  fake 0 [ (0, "Step31") ] [| waiting; looking |];
  fake 1 [ (1, "Step31") ] [| waiting; waiting |];
  fake 2 [ (0, "Step4") ] [| Obs.make Obs.Idle; waiting |];
  check_int "length" 3 (Snapcc_runtime.Trace.length tr);
  check "entries in order" true
    (List.map
       (fun (e : Snapcc_runtime.Trace.entry) -> e.Snapcc_runtime.Trace.executed)
       (Snapcc_runtime.Trace.entries tr)
    = [ [ (0, "Step31") ]; [ (1, "Step31") ]; [ (0, "Step4") ] ])

let test_trace_fault_boundary () =
  let tr, fake = fake_trace () in
  let idle = Obs.make Obs.Idle in
  Snapcc_runtime.Trace.record_fault tr ~step:0 [| waiting; waiting |];
  fake 0 [] [| waiting; waiting |];
  Snapcc_runtime.Trace.record_fault tr ~step:1 [| idle; idle |];
  fake 1 [] [| idle; idle |];
  fake 2 [ (0, "Step31"); (1, "Step31") ] [| waiting; waiting |];
  check_int "fault entries counted in length" 5
    (Snapcc_runtime.Trace.length tr);
  check "fault entries are marked" true
    (List.map
       (fun (e : Snapcc_runtime.Trace.entry) -> e.Snapcc_runtime.Trace.fault)
       (Snapcc_runtime.Trace.entries tr)
    = [ true; false; true; false; false ])

let suite =
  [ ( "runtime",
      [ Alcotest.test_case "priority: later action wins" `Quick test_priority;
        Alcotest.test_case "termination" `Quick test_termination;
        Alcotest.test_case "atomic distributed step" `Quick test_atomic_step;
        Alcotest.test_case "neutralization" `Quick test_neutralization;
        Alcotest.test_case "round counting" `Quick test_round_counting;
        Alcotest.test_case "daemon contract enforced" `Quick test_daemon_contract;
        Alcotest.test_case "locality checking" `Quick test_locality_check;
        Alcotest.test_case "fault injection and recovery" `Quick test_corrupt;
        Alcotest.test_case "rejected corrupt changes nothing" `Quick
          test_corrupt_rejected;
        Alcotest.test_case "standard daemons select subsets" `Quick
          test_daemons_select_subset;
        Alcotest.test_case "trace records steps" `Quick test_trace_record;
        Alcotest.test_case "trace records fault boundaries" `Quick
          test_trace_fault_boundary;
      ] );
  ]

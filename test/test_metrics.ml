(* Metrics: concurrency accounting, waiting spans, convene counters. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Obs = Snapcc_runtime.Obs
module Metrics = Snapcc_analysis.Metrics
module Spec = Snapcc_analysis.Spec
module Tele = Snapcc_telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let idle = Obs.make Obs.Idle
let looking = Obs.make Obs.Looking
let member status eid = Obs.make ~pointer:(Some eid) status

(* fig2: e0={v0,v1} e1={v0,v2,v4} e2={v2,v3} *)
let h () = Families.fig2 ()

let test_waiting_span () =
  let h = h () in
  let t = Metrics.create h ~initial:(Array.make 5 idle) in
  (* the convene ledger is Spec's, fed the same transitions *)
  let spec = Spec.create h ~initial:(Array.make 5 idle) in
  let on_step ~step ~round ~before ~after =
    Metrics.on_step t ~step ~round ~before ~after;
    Spec.on_step spec ~step ~request_out:(fun _ -> false) ~before ~after
  in
  (* v2 and v3 start waiting at step 1 *)
  let s1 = [| idle; idle; looking; looking; idle |] in
  on_step ~step:1 ~round:1 ~before:(Array.make 5 idle) ~after:s1;
  let s2 = [| idle; idle; member Obs.Looking 2; member Obs.Looking 2; idle |] in
  on_step ~step:2 ~round:1 ~before:s1 ~after:s2;
  (* convene at step 5, round 3 *)
  let s3 = [| idle; idle; member Obs.Waiting 2; member Obs.Waiting 2; idle |] in
  on_step ~step:5 ~round:3 ~before:s2 ~after:s3;
  let s = Metrics.finish t ~step:6 ~round:3 in
  check_int "one convene" 1 s.Metrics.convenes;
  check_int "two served waits" 2 (List.length s.Metrics.completed_waits_steps);
  check "waits of 4 steps" true
    (List.for_all (fun d -> d = 4) s.Metrics.completed_waits_steps);
  check "waits of 2 rounds" true
    (List.for_all (fun d -> d = 2) s.Metrics.completed_waits_rounds);
  check_int "participations v2" 1 (Spec.participations spec).(2);
  check_int "max concurrency" 1 s.Metrics.max_concurrency

let test_open_waits_and_starvation () =
  let h = h () in
  let t = Metrics.create h ~initial:(Array.make 5 idle) in
  let s1 = [| looking; idle; idle; idle; looking |] in
  Metrics.on_step t ~step:1 ~round:1 ~before:(Array.make 5 idle) ~after:s1;
  (* v0 leaves the waiting state without meeting; v4 keeps waiting *)
  let s2 = [| idle; idle; idle; idle; looking |] in
  Metrics.on_step t ~step:2 ~round:1 ~before:s1 ~after:s2;
  let s = Metrics.finish t ~step:10 ~round:5 in
  check_int "one open wait" 1 (List.length s.Metrics.open_waits_steps);
  Alcotest.(check (list int)) "v4 is the starving one" [ 4 ] s.Metrics.starved;
  check_int "max wait counts the open span" 9 s.Metrics.max_wait_steps

let test_concurrency_mean () =
  let h = h () in
  let meet = [| member Obs.Waiting 0; member Obs.Done 0; member Obs.Waiting 2; member Obs.Waiting 2; idle |] in
  let t = Metrics.create h ~initial:(Array.make 5 idle) in
  Metrics.on_step t ~step:1 ~round:1 ~before:(Array.make 5 idle) ~after:meet;
  Metrics.on_step t ~step:2 ~round:1 ~before:meet ~after:meet;
  let s = Metrics.finish t ~step:2 ~round:1 in
  check_int "two simultaneous meetings" 2 s.Metrics.max_concurrency;
  check "mean concurrency 2.0" true (abs_float (s.Metrics.mean_concurrency -. 2.0) < 1e-9);
  (* convenes counted once per meeting, not per step *)
  check_int "two convenes" 2 s.Metrics.convenes

let test_inherited_meeting_not_waiting () =
  let h = h () in
  (* v2,v3 meet from the start: their 'waiting' statuses are not waits *)
  let initial = [| idle; idle; member Obs.Waiting 2; member Obs.Waiting 2; idle |] in
  let t = Metrics.create h ~initial in
  Metrics.on_step t ~step:1 ~round:1 ~before:initial ~after:initial;
  let s = Metrics.finish t ~step:5 ~round:2 in
  check_int "no open waits for meeting members" 0
    (List.length s.Metrics.open_waits_steps)

let test_helpers () =
  check "mean of empty" true (Metrics.mean [] = 0.);
  check "mean" true (abs_float (Metrics.mean [ 1; 2; 3 ] -. 2.) < 1e-9);
  check_int "maximum of empty" 0 (Metrics.maximum []);
  check_int "maximum" 9 (Metrics.maximum [ 4; 9; 1 ]);
  check_int "p50 empty" 0 (Metrics.percentile 0.5 []);
  check_int "p50 of 1..10" 5 (Metrics.percentile 0.5 (List.init 10 (fun i -> i + 1)));
  check_int "p95 of 1..100" 95 (Metrics.percentile 0.95 (List.init 100 (fun i -> i + 1)));
  check_int "p100 is max" 100 (Metrics.percentile 1.0 (List.init 100 (fun i -> i + 1)));
  check_int "singleton" 7 (Metrics.percentile 0.5 [ 7 ])

(* nearest-rank edge cases; Registry and Stats implement the same rule, so
   the offline JSONL aggregation agrees with these (see test_telemetry) *)
let test_percentile_edges () =
  check_int "singleton p0" 7 (Metrics.percentile 0.0 [ 7 ]);
  check_int "singleton p100" 7 (Metrics.percentile 1.0 [ 7 ]);
  check_int "singleton p99" 7 (Metrics.percentile 0.99 [ 7 ]);
  check_int "all-equal p50" 4 (Metrics.percentile 0.5 [ 4; 4; 4; 4 ]);
  check_int "all-equal p90" 4 (Metrics.percentile 0.9 [ 4; 4; 4; 4 ]);
  check_int "all-equal p100" 4 (Metrics.percentile 1.0 [ 4; 4; 4; 4 ]);
  (* rank = ceil(0.9*10) = 9 → the 9th smallest of 0..9 *)
  check_int "unsorted input" 8 (Metrics.percentile 0.9 [ 9; 1; 5; 2; 8; 3; 7; 4; 6; 0 ]);
  check_int "two elements p50" 1 (Metrics.percentile 0.5 [ 1; 2 ]);
  check_int "two elements p51" 2 (Metrics.percentile 0.51 [ 1; 2 ])

let test_timeline_rendering () =
  let h = h () in
  let looking = Obs.make Obs.Looking in
  let tr =
    Snapcc_runtime.Trace.create h ~initial:(Array.make 5 looking)
  in
  let meet = [| looking; looking; member Obs.Waiting 2; member Obs.Done 2; looking |] in
  let record step obs =
    Snapcc_runtime.Trace.record tr
      { Snapcc_runtime.Model.step; selected = []; executed = []; neutralized = [];
        round = 0; terminal = false }
      obs
  in
  record 0 meet;
  record 1 meet;
  record 2 (Array.make 5 looking);
  record 3 (Array.make 5 looking);
  let s =
    Format.asprintf "%a" (Snapcc_runtime.Trace.pp_timeline ~width:4) tr
  in
  let lines = String.split_on_char '\n' s in
  check_int "one row per committee" 3 (List.length lines);
  (* e2 = {3,4} met during the first half only *)
  let row2 = List.nth lines 2 in
  check "meeting rendered then cleared" true
    (String.length row2 >= 4
     &&
     let tail = String.sub row2 (String.length row2 - 4) 4 in
     tail = "##..")

(* ---- sharing a configuration never changes a verdict ---- *)

(* Spec and Metrics judge a repeated configuration (the same physical
   array as [before] and [after], as [Mp_engine.obs] returns on a delivery)
   without their per-edge passes.  Fed the same walk once with shared
   arrays and once with a fresh copy at every step, they must agree on
   everything they report. *)

type move =
  | Repeat  (** nothing changed *)
  | Next of Obs.t array  (** a step to this configuration *)
  | Fault of Obs.t array  (** a transient fault left this configuration *)

let statuses = [| Obs.Idle; Obs.Looking; Obs.Waiting; Obs.Done |]

let random_obs h rng p =
  let inc = H.incident h p in
  let pointer =
    if Random.State.int rng 4 = 0 then None
    else Some inc.(Random.State.int rng (Array.length inc))
  in
  Obs.make ~pointer ~discussions:(Random.State.int rng 3)
    ~has_token:(Random.State.bool rng)
    statuses.(Random.State.int rng 4)

(* A walk biased towards meetings and repeats. *)
let walk h ~seed ~len =
  let rng = Random.State.make [| seed |] in
  let n = H.n h in
  let cur = ref (Array.init n (random_obs h rng)) in
  let initial = !cur in
  let moves = ref [] in
  for _ = 1 to len do
    let c = Array.copy !cur in
    let p = Random.State.int rng n in
    let mv =
      match Random.State.int rng 20 with
      | r when r < 7 -> Repeat
      | r when r < 12 ->
        c.(p) <- random_obs h rng p;
        Next c
      | r when r < 15 ->
        let e = Random.State.int rng (H.m h) in
        Array.iter
          (fun q ->
            c.(q) <-
              Obs.make ~pointer:(Some e) ~discussions:(Random.State.int rng 3)
                (if Random.State.bool rng then Obs.Waiting else Obs.Done))
          (H.edge_members h e);
        Next c
      | r when r < 18 ->
        (* back into status waiting: inside a meeting, Metrics opens a
           wait it drops again on the next step *)
        c.(p) <- { (c.(p)) with Obs.status = Obs.Waiting };
        Next c
      | _ ->
        c.(p) <- random_obs h rng p;
        Fault c
    in
    (match mv with Repeat -> () | Next c | Fault c -> cur := c);
    moves := mv :: !moves
  done;
  (initial, List.rev !moves)

type observed = {
  violations : Spec.violation list;
  convened : (int * int) list;
  terminations : int;
  summary : Metrics.summary;
  events : Tele.Event.t list;
  stats : string;
}

(* [share]: pass the walk's own arrays (a repeat passes the previous
   [after] again); otherwise a fresh copy of each, every step.  A fault is
   fed like [Observer.fault]: Spec exempts its meetings, and the next step
   starts from it. *)
let replay h (initial, moves) ~share =
  let own a = if share then a else Array.copy a in
  let hub = Tele.Hub.create () in
  let events = ref [] in
  Tele.Hub.add_sink hub
    (Tele.Sink.custom ~close:ignore ~emit:(fun s ->
         events := s.Tele.Event.ev :: !events));
  let stats = Tele.Stats.create () in
  Tele.Hub.add_sink hub (Tele.Stats.sink stats);
  let first = own initial in
  let spec = Spec.create ~telemetry:hub h ~initial:first in
  let metrics = Metrics.create ~telemetry:hub h ~initial:first in
  let before = ref first and cur = ref initial and step = ref 0 in
  let judge () =
    incr step;
    let step = !step and after = own !cur in
    Spec.on_step spec ~step
      ~request_out:(fun p -> (step + p) mod 3 = 0)
      ~before:!before ~after;
    Metrics.on_step metrics ~step ~round:(step / 4) ~before:!before ~after;
    before := after
  in
  List.iter
    (function
      | Repeat -> judge ()
      | Next c ->
        cur := c;
        judge ()
      | Fault c ->
        cur := c;
        let c = own c in
        Spec.on_fault spec c;
        before := c)
    moves;
  let summary = Metrics.finish metrics ~step:(!step + 1) ~round:(!step / 4) in
  { violations = Spec.violations spec;
    convened = Spec.convened spec;
    terminations = Spec.terminations spec;
    summary;
    events = List.rev !events;
    stats = Tele.Json.to_string (Tele.Stats.to_json (snd (Tele.Stats.result stats))) }

let prop_sharing_never_changes_a_verdict =
  QCheck.Test.make ~name:"sharing a configuration never changes a verdict"
    ~count:300
    QCheck.(pair bool small_nat)
    (fun (ring, seed) ->
      let h = if ring then Families.by_name "ring6" else Families.fig2 () in
      let w = walk h ~seed ~len:80 in
      replay h w ~share:true = replay h w ~share:false)

(* The case the settled condition exists for: professor v3 re-enters
   waiting while its committee e2 meets.  The wait Metrics opens must be
   dropped on the next step, which repeats the configuration. *)
let test_wait_opened_inside_a_meeting () =
  let h = h () in
  let meet = [| idle; idle; member Obs.Waiting 2; member Obs.Done 2; idle |] in
  let rejoin = [| idle; idle; member Obs.Waiting 2; member Obs.Waiting 2; idle |] in
  let w = (Array.make 5 idle, [ Next meet; Next rejoin; Repeat; Repeat ]) in
  let shared = replay h w ~share:true in
  check "shared = copied" true (shared = replay h w ~share:false);
  check "the wait was opened" true
    (List.exists
       (function Tele.Event.Wait_open { p = 3; _ } -> true | _ -> false)
       shared.events);
  check_int "and dropped" 0 (List.length shared.summary.Metrics.open_waits_steps)

let suite =
  [ ( "metrics",
      [ Alcotest.test_case "waiting spans" `Quick test_waiting_span;
        Alcotest.test_case "open waits and starvation" `Quick
          test_open_waits_and_starvation;
        Alcotest.test_case "concurrency accounting" `Quick test_concurrency_mean;
        Alcotest.test_case "inherited meetings are not waits" `Quick
          test_inherited_meeting_not_waiting;
        Alcotest.test_case "helpers" `Quick test_helpers;
        Alcotest.test_case "percentile nearest-rank edges" `Quick
          test_percentile_edges;
        Alcotest.test_case "timeline rendering" `Quick test_timeline_rendering;
        Alcotest.test_case "a wait opened inside a meeting is dropped" `Quick
          test_wait_opened_inside_a_meeting;
        QCheck_alcotest.to_alcotest ~long:false
          prop_sharing_never_changes_a_verdict;
      ] );
  ]

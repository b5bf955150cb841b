module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Daemon = Snapcc_runtime.Daemon
module Trace = Snapcc_runtime.Trace
module Workload = Snapcc_workload.Workload
module Spec = Snapcc_analysis.Spec
module Metrics = Snapcc_analysis.Metrics
module Observer = Snapcc_analysis.Observer
module Tele = Snapcc_telemetry

type result = {
  algo : string;
  daemon : string;
  workload : string;
  outcome : [ `Terminal | `Stopped | `Steps_exhausted ];
  steps : int;
  rounds : int;
  final_obs : Obs.t array;
  violations : Spec.violation list;
  convened : (int * int) list;
  convene_count : int array;
  participations : int array;
  summary : Metrics.summary;
  trace : Trace.t option;
  profile : (string * int) list;
}

let ok r = r.violations = []

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s under %s / %s: %s after %d steps (%d rounds)@ %a@ %d violations@]"
    r.algo r.daemon r.workload
    (match r.outcome with
     | `Terminal -> "terminal"
     | `Stopped -> "stopped"
     | `Steps_exhausted -> "horizon reached")
    r.steps r.rounds Metrics.pp_summary r.summary
    (List.length r.violations)

let run_start ~algo ~daemon ~workload ~seed h =
  Tele.Event.Run_start
    { algo; daemon; workload = Workload.name workload; seed;
      n = Snapcc_hypergraph.Hypergraph.n h;
      m = Snapcc_hypergraph.Hypergraph.m h;
      topo = Snapcc_hypergraph.Hypergraph_io.to_string h }

let run_end outcome ~steps ~rounds =
  Tele.Event.Run_end
    { outcome =
        (match outcome with
         | `Terminal -> "terminal"
         | `Stopped -> "stopped"
         | `Steps_exhausted -> "steps_exhausted");
      steps;
      rounds }

let result ~algo ~daemon ~workload ~outcome ~steps ~rounds ~final_obs ?trace
    ~profile observer =
  let spec = Observer.spec observer in
  { algo;
    daemon;
    workload = Workload.name workload;
    outcome;
    steps;
    rounds;
    final_obs;
    violations = Spec.violations spec;
    convened = Spec.convened spec;
    convene_count = Spec.convene_count spec;
    participations = Spec.participations spec;
    summary = Observer.finish observer ~step:steps ~round:rounds;
    trace;
    profile }

module Make (A : Model.ALGO) = struct
  module E = Snapcc_runtime.Engine.Make (A)

  (* like [run] below, but also returns the final typed configuration (used
     by the dynamic-hypergraph experiment to carry states across changes) *)
  let run_with_states ?(seed = 0) ?(init : [ `Canonical | `Random ] = `Canonical)
      ?init_states ?(check_locality = false) ?packed ?faults
      ?(stop_when = fun _ -> false) ?(record_trace = false)
      ?(stutter_limit = 1000) ?telemetry ~daemon ~workload ~steps h =
    let init =
      match init_states with
      | Some states -> `States states
      | None -> (init :> [ `Canonical | `Random | `States of A.state array ])
    in
    let eng = E.create ~seed ~check_locality ~init ?packed ~daemon h in
    let initial = E.obs eng in
    let observer = Observer.create ?telemetry h ~initial in
    let trace = if record_trace then Some (Trace.create h ~initial) else None in
    let emit ev =
      match telemetry with Some hub -> Tele.Hub.emit hub ev | None -> ()
    in
    let step_counter =
      Option.map (fun hub -> Tele.Registry.counter (Tele.Hub.registry hub) "steps")
        telemetry
    in
    emit (run_start ~algo:A.name ~daemon:(Daemon.name daemon) ~workload ~seed h);
    let outcome = ref `Steps_exhausted in
    let stutters = ref 0 in
    (try
       for _i = 0 to steps - 1 do
         (match faults with
          | None -> ()
          | Some f ->
            (match f ~step:(E.steps_taken eng) with
             | [] -> ()
             | victims ->
               E.corrupt eng ~victims ();
               let corrupted = E.obs eng in
               Observer.fault observer corrupted;
               emit
                 (Tele.Event.Fault { step = E.steps_taken eng; victims });
               (match trace with
                | Some tr ->
                  Trace.record_fault tr ~step:(E.steps_taken eng) corrupted
                | None -> ())));
         let inputs = Workload.inputs workload (Observer.before observer) in
         let report = E.step eng ~inputs in
         if report.Model.terminal then begin
           (* No action is enabled under the *current* inputs, but inputs
              evolve: let the workload observe (advancing its timers and
              coins) and stutter.  Only a long stretch of stutters — the
              workload has visibly frozen — ends the run. *)
           stutters := !stutters + 1;
           Workload.observe workload ~step:(E.steps_taken eng)
             (Observer.before observer);
           if !stutters > stutter_limit then begin
             outcome := `Terminal;
             raise Exit
           end
         end
         else begin
           stutters := 0;
           let after = E.obs eng in
           (* telemetry: engine step (daemon selection, meeting set) and
              per-process firings; the observer adds the rest *)
           (match telemetry with
            | None -> ()
            | Some _ ->
              Option.iter (fun c -> Tele.Registry.incr c) step_counter;
              emit
                (Tele.Event.Step
                   { step = report.Model.step;
                     round = report.Model.round;
                     selected = report.Model.selected;
                     neutralized = report.Model.neutralized;
                     meetings = Obs.meetings h after });
              List.iter
                (fun (p, label) ->
                  emit (Tele.Event.Action { step = report.Model.step; p; label }))
                report.Model.executed);
           Observer.step observer ~step:report.Model.step
             ~round:report.Model.round ~request_out:inputs.Model.request_out
             after;
           Workload.observe workload ~step:report.Model.step after;
           (match trace with Some tr -> Trace.record tr report after | None -> ());
           if stop_when after then begin
             outcome := `Stopped;
             raise Exit
           end
         end
       done
     with Exit -> ());
    emit (run_end !outcome ~steps:(E.steps_taken eng) ~rounds:(E.rounds eng));
    ( result ~algo:A.name ~daemon:(Daemon.name daemon) ~workload ~outcome:!outcome
        ~steps:(E.steps_taken eng) ~rounds:(E.rounds eng) ~final_obs:(E.obs eng)
        ?trace ~profile:(E.profile eng) observer,
      E.states eng )

  let run ?seed ?init ?init_states ?check_locality ?packed ?faults ?stop_when
      ?record_trace ?stutter_limit ?telemetry ~daemon ~workload ~steps h =
    fst
      (run_with_states ?seed ?init ?init_states ?check_locality ?packed
         ?faults ?stop_when ?record_trace ?stutter_limit ?telemetry ~daemon
         ~workload ~steps h)
end

module Mp (A : Model.ALGO) = struct
  module E = Snapcc_mp.Mp_engine.Make (A)

  let daemon = "mp-scheduler"

  let run ?(seed = 0) ?(init = `Canonical) ?deliver_bias ?vclock ?faults
      ?telemetry ~workload ~steps h =
    let eng = E.create ~seed ~init ?deliver_bias ?telemetry ?vclock h in
    let observer = Observer.create ?telemetry h ~initial:(E.obs eng) in
    let emit ev =
      match telemetry with Some hub -> Tele.Hub.emit hub ev | None -> ()
    in
    emit (run_start ~algo:A.name ~daemon ~workload ~seed h);
    for i = 0 to steps - 1 do
      (match faults with
       | None -> ()
       | Some f -> (
         match f ~step:i with
         | [] -> ()
         | victims ->
           (* the engine emits the [fault] event and the corruption's
              clock stamps *)
           E.corrupt eng ~victims;
           Observer.fault observer (E.obs eng)));
      let inputs = Workload.inputs workload (Observer.before observer) in
      ignore (E.step eng ~inputs);
      let after = E.obs eng in
      Observer.step observer ~step:i ~round:0
        ~request_out:inputs.Model.request_out after;
      Workload.observe workload ~step:i after
    done;
    emit (run_end `Steps_exhausted ~steps ~rounds:0);
    ( result ~algo:A.name ~daemon ~workload ~outcome:`Steps_exhausted ~steps
        ~rounds:0 ~final_obs:(E.obs eng) ~profile:(E.profile eng) observer,
      eng )
end

module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry

type t = {
  h : H.t;
  spec : Spec.t;
  metrics : Metrics.t;
  telemetry : Tele.Hub.t option;
  mutable before : Obs.t array;
  mutable awaiting_recovery : bool;
  mutable recovered : int option;
}

let create ?telemetry h ~initial =
  { h;
    spec = Spec.create ?telemetry h ~initial;
    metrics = Metrics.create ?telemetry h ~initial;
    telemetry;
    before = initial;
    awaiting_recovery = false;
    recovered = None }

let before t = t.before
let spec t = t.spec
let recovered t = t.recovered
let finish t ~step ~round = Metrics.finish t.metrics ~step ~round

let fault t corrupted =
  Spec.on_fault t.spec corrupted;
  t.before <- corrupted;
  t.awaiting_recovery <- true

(* the lowest committee meeting in [after] but not in [before] *)
let rec first_convene h ~before ~after e =
  if e >= H.m h then None
  else if Obs.meets h after e && not (Obs.meets h before e) then Some e
  else first_convene h ~before ~after (e + 1)

let step t ~step ~round ~request_out after =
  let before = t.before in
  (match t.telemetry with
   | None -> ()
   | Some hub ->
     for p = 0 to Array.length after - 1 do
       if after.(p).Obs.has_token && not before.(p).Obs.has_token then
         Tele.Hub.emit hub (Tele.Event.Token_handoff { step; p })
     done);
  (if t.awaiting_recovery then
     match first_convene t.h ~before ~after 0 with
     | None -> ()
     | Some eid ->
       t.awaiting_recovery <- false;
       if t.recovered = None then t.recovered <- Some step;
       Option.iter
         (fun hub -> Tele.Hub.emit hub (Tele.Event.Recover { step; eid }))
         t.telemetry);
  Spec.on_step t.spec ~step ~request_out ~before ~after;
  Metrics.on_step t.metrics ~step ~round ~before ~after;
  t.before <- after

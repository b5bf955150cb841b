module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs

type violation = { step : int; rule : string; detail : string }

(* Per-committee meeting bookkeeping: [Exempt] marks meetings inherited
   from the initial configuration (no discussion guarantees, §2.5);
   [Running] records the convene step and each member's discussion counter
   at convene time. *)
type session = Off | Exempt | Running of { since : int; disc_at_convene : int array }

type t = {
  h : H.t;
  mutable rev_violations : violation list;
  mutable rev_convened : (int * int) list;
  mutable terminations : int;
  convene_count : int array;
  participations : int array;
  sessions : session array;
  telemetry : Snapcc_telemetry.Hub.t option;
  mutable last : Obs.t array;  (* the last [after] judged *)
  mutable exclusion : (int * int) list;
      (* the conflicting pairs meeting in [last], in report order *)
}

let create ?telemetry h ~initial =
  let sessions =
    Array.init (H.m h) (fun e -> if Obs.meets h initial e then Exempt else Off)
  in
  {
    h;
    rev_violations = [];
    rev_convened = [];
    terminations = 0;
    convene_count = Array.make (H.m h) 0;
    participations = Array.make (H.n h) 0;
    sessions;
    telemetry;
    last = [||];
    exclusion = [];
  }

let report t ~step ~rule detail =
  t.rev_violations <- { step; rule; detail } :: t.rev_violations;
  match t.telemetry with
  | Some hub ->
    Snapcc_telemetry.Hub.emit hub
      (Snapcc_telemetry.Event.Verdict { step; rule; detail })
  | None -> ()

let edge_str t e = Format.asprintf "%a" (H.pp_edge t.h) e

(* The conflicting pairs meeting in [obs]: [(e, e')] with [e < e'], by
   [e] then [e'].  Empty for the pointer model (Lemma 1). *)
let exclusion_pairs t obs =
  let rec pairs acc = function
    | [] -> List.rev acc
    | e :: rest ->
      pairs
        (List.fold_left
           (fun acc e' -> if H.conflicting t.h e e' then (e, e') :: acc else acc)
           acc rest)
        rest
  in
  pairs [] (Obs.meetings t.h obs)

let report_exclusion t ~step (e, e') =
  report t ~step ~rule:"exclusion"
    (Printf.sprintf "conflicting committees %s and %s meet simultaneously"
       (edge_str t e) (edge_str t e'))

let check_convene t ~step ~(before : Obs.t array) ~(after : Obs.t array) e =
  let members = H.edge_members t.h e in
  (* synchronization: all members were waiting (status looking/waiting) *)
  Array.iter
    (fun q ->
      match before.(q).Obs.status with
      | Obs.Looking | Obs.Waiting -> ()
      | Obs.Idle | Obs.Done ->
        report t ~step ~rule:"synchronization"
          (Printf.sprintf "committee %s convened while professor %d was %s"
             (edge_str t e) (H.id t.h q)
             (Format.asprintf "%a" Obs.pp_status before.(q).Obs.status)))
    members;
  (* Lemma 2: right after convening, every member is in status waiting *)
  Array.iter
    (fun q ->
      if after.(q).Obs.status <> Obs.Waiting then
        report t ~step ~rule:"synchronization"
          (Printf.sprintf
             "committee %s convened with professor %d in status %s (expected waiting)"
             (edge_str t e) (H.id t.h q)
             (Format.asprintf "%a" Obs.pp_status after.(q).Obs.status)))
    members;
  t.rev_convened <- (step, e) :: t.rev_convened;
  t.convene_count.(e) <- t.convene_count.(e) + 1;
  Array.iter (fun q -> t.participations.(q) <- t.participations.(q) + 1) members;
  t.sessions.(e) <-
    Running
      { since = step;
        disc_at_convene = Array.map (fun q -> after.(q).Obs.discussions) members }

let check_terminate t ~step ~request_out ~(before : Obs.t array) e =
  let members = H.edge_members t.h e in
  t.terminations <- t.terminations + 1;
  (match t.sessions.(e) with
   | Exempt | Off -> ()
   | Running { since; disc_at_convene } ->
     (* essential discussion: nobody may leave before everyone is done *)
     Array.iteri
       (fun i q ->
         if before.(q).Obs.status <> Obs.Done then
           report t ~step ~rule:"essential-discussion"
             (Printf.sprintf
                "meeting %s (convened at %d) broke up while professor %d was %s"
                (edge_str t e) since (H.id t.h q)
                (Format.asprintf "%a" Obs.pp_status before.(q).Obs.status));
         if before.(q).Obs.discussions < disc_at_convene.(i) + 1 then
           report t ~step ~rule:"essential-discussion"
             (Printf.sprintf
                "professor %d left meeting %s without discussing" (H.id t.h q)
                (edge_str t e)))
       members;
     (* voluntary discussion: somebody wanted out *)
     if not (Array.exists request_out members) then
       report t ~step ~rule:"voluntary-discussion"
         (Printf.sprintf
            "meeting %s (convened at %d) terminated with no RequestOut" (edge_str t e)
            since));
  t.sessions.(e) <- Off

(* A configuration is judged once: a repeated [after] re-reports the
   exclusion pairs found for it, and a step that changed nothing
   ([before == after]) convenes and terminates nothing. *)
let on_step t ~step ~request_out ~before ~after =
  if after != t.last then begin
    t.exclusion <- exclusion_pairs t after;
    t.last <- after
  end;
  (match t.exclusion with
   | [] -> ()
   | pairs -> List.iter (report_exclusion t ~step) pairs);
  if before != after then
    for e = 0 to H.m t.h - 1 do
      let was = Obs.meets t.h before e and is = Obs.meets t.h after e in
      if (not was) && is then check_convene t ~step ~before ~after e
      else if was && not is then check_terminate t ~step ~request_out ~before e
    done

let on_fault t obs =
  for e = 0 to H.m t.h - 1 do
    if Obs.meets t.h obs e then t.sessions.(e) <- Exempt
    else t.sessions.(e) <- Off
  done

let violations t = List.rev t.rev_violations
let ok t = t.rev_violations = []
let convened t = List.rev t.rev_convened
let terminations t = t.terminations
let convene_count t = Array.copy t.convene_count
let participations t = Array.copy t.participations

let pp_violation ppf v =
  Format.fprintf ppf "[step %d] %s: %s" v.step v.rule v.detail

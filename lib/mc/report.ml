module Table = Snapcc_experiments.Table

type t = {
  algo : string;
  token : string;
  topo : string;
  product : float;
  configs : int;
  symmetry_order : int;
  transitions : int;
  complete : bool;
  escapees : int;
  outside_roots : int;
  dead : string list;
  safety_violations : int;
  first_rule : string option;
  progress_checked : bool;
  sccs : int;
  largest_scc : int;
  deadlocks : int;
  livelocks : int;
  seconds : float;
}

type outcome = Pass | Fail | Incomplete

let closure_judged r = r.outside_roots = 0

let outcome r =
  if
    r.safety_violations > 0
    || (r.escapees > 0 && closure_judged r)
    || r.deadlocks > 0 || r.livelocks > 0
  then Fail
  else if r.complete then Pass
  else Incomplete

let outcome_name = function
  | Pass -> "PASS"
  | Fail -> "FAIL"
  | Incomplete -> "INCOMPLETE"

let states_per_sec r =
  if r.seconds > 0. then float_of_int r.configs /. r.seconds else 0.

let summary_table reports =
  { Table.id = "check-matrix";
    title = "ccsim check: exhaustive verification matrix";
    header =
      [ "algo"; "token"; "topo"; "initial"; "states"; "transitions";
        "escapees"; "safety"; "deadlock"; "livelock"; "states/s"; "verdict" ];
    rows =
      List.map
        (fun r ->
          [ r.algo; r.token; r.topo;
            Printf.sprintf "%.0f" r.product;
            Table.i r.configs; Table.i r.transitions; Table.i r.escapees;
            (match r.first_rule with
            | Some rule -> Printf.sprintf "%d (%s)" r.safety_violations rule
            | None -> Table.i r.safety_violations);
            (if r.progress_checked then Table.i r.deadlocks else "-");
            (if r.progress_checked then Table.i r.livelocks else "-");
            Printf.sprintf "%.0f" (states_per_sec r);
            outcome_name (outcome r) ])
        reports;
    notes =
      [ "initial = domain product (every configuration is a legal start, \
         §2.5); states = explored (reachable closure of the domain)";
        "safety via the runtime monitor per transition; progress = \
         deadlock/livelock under weak fairness on the in+out graph" ] }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s ∘ %s on %s: %s@,\
     initial configurations: %.0f, explored: %d states, %d transitions%s@,\
     closure: %s@,safety: %s@,progress: %s@,throughput: %.0f states/s (%.2fs)@]"
    r.algo r.token r.topo
    (outcome_name (outcome r))
    r.product r.configs r.transitions
    (if r.complete then "" else " (capped: INCOMPLETE)")
    (if not (closure_judged r) then
       Printf.sprintf
         "not judged (%d sampled root(s) outside the declared domain), %d \
          escapee state(s)"
         r.outside_roots r.escapees
     else if r.escapees = 0 then "domain closed under all transitions"
     else Printf.sprintf "%d escapee state(s) outside the declared domain"
            r.escapees)
    (match (r.safety_violations, r.first_rule) with
    | 0, _ -> "no violation on any explored transition"
    | k, Some rule -> Printf.sprintf "%d violation(s), first rule %s" k rule
    | k, None -> Printf.sprintf "%d violation(s)" k)
    (if not r.progress_checked then "skipped (incomplete exploration)"
     else if r.deadlocks = 0 && r.livelocks = 0 then
       Printf.sprintf "no deadlock, no livelock (%d SCCs, largest %d)" r.sccs
         r.largest_scc
     else
       Printf.sprintf "%d deadlock(s), %d livelock(s)" r.deadlocks r.livelocks)
    (states_per_sec r) r.seconds

let to_json r =
  let open Snapcc_telemetry.Json in
  Obj
    [ ("algo", String r.algo);
      ("token", String r.token);
      ("topo", String r.topo);
      ("outcome", String (outcome_name (outcome r)));
      ("product", Float r.product);
      ("configs", Int r.configs);
      ("symmetry_order", Int r.symmetry_order);
      ("transitions", Int r.transitions);
      ("complete", Bool r.complete);
      ("escapees", Int r.escapees);
      ("closure_judged", Bool (closure_judged r));
      ("dead", List (List.map (fun s -> String s) r.dead));
      ("safety_violations", Int r.safety_violations);
      ("first_rule",
       (match r.first_rule with None -> Null | Some s -> String s));
      ("progress_checked", Bool r.progress_checked);
      ("sccs", Int r.sccs);
      ("largest_scc", Int r.largest_scc);
      ("deadlocks", Int r.deadlocks);
      ("livelocks", Int r.livelocks);
      ("seconds", Float r.seconds);
      ("states_per_sec", Float (states_per_sec r)) ]

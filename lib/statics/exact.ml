(* The exact static-analysis tier: a thin reporting layer over the dense
   guard/footprint tables of [Snapcc_mc.Tables].

   Where [Analyze] samples reachable configurations (verdicts relative to
   coverage), this tier enumerates every process's full support product
   over the declared domains under all input modes, so a clean pass is a
   proof over the enumerated families, a never-true guard a dead-action
   proof, and the priority-overlap / interference statistics are exact
   counts rather than samples. *)

module H = Snapcc_hypergraph.Hypergraph
module Tables = Snapcc_mc.Tables

type coverage = {
  cells : int;  (** (cell, mode) pairs enumerated, all processes *)
  seconds : float;
  complete : bool;  (** every pass enumerated: dead verdicts are proofs *)
  stored : bool;  (** every pass also stored: tables usable by {!Explore} *)
  tainted : bool;  (** in-place mutation corrupted the interned stores *)
  live : string list;  (** actions whose guard held somewhere *)
  proc_status : (int * string) list;
      (** non-[`Built] processes: [(proc, reason)] *)
}

(* A sampled violation is subsumed when the exact tier reproduced it
   (finding or waived) at the same rule on the same process: exact
   write-ownership evidence is fingerprint-based and carries no action
   attribution (label "*"), so the action only has to agree when the exact
   side names one. *)
let agreement ~exact ~sampled =
  let witnesses =
    exact.Report.findings @ exact.Report.waived
  in
  List.filter
    (fun (f : Report.finding) ->
      not
        (List.exists
           (fun (g : Report.finding) ->
             g.Report.rule = f.Report.rule
             && g.Report.proc = f.Report.proc
             && (g.Report.action = f.Report.action || g.Report.action = "*"))
           witnesses))
    sampled.Report.findings

module Make (Sys : Snapcc_mc.System.S) = struct
  module Tb = Tables.Make (Sys)

  let finding_of_incident (i : Tables.incident) count =
    match i with
    | Tables.Nonlocal_read { proc; action; read } ->
      { Report.rule = Report.Locality;
        action;
        proc;
        count;
        detail = Printf.sprintf "reads process %d, not a neighbor" read }
    | Tables.Foreign_mutation { proc; victim } ->
      { Report.rule = Report.Write_ownership;
        action = "*";
        proc;
        count;
        detail =
          Printf.sprintf
            "enumerating process %d's actions mutated an interned state of \
             process %d in place"
            proc victim }
    | Tables.Nondet { proc; action; what } ->
      { Report.rule = Report.Determinism;
        action;
        proc;
        count;
        detail =
          (match what with
          | `Guard -> "guard value differs across evaluations of one cell"
          | `Apply -> "statement result differs across evaluations of one cell") }
    | Tables.Crashed { proc; action; what; exn } ->
      { Report.rule = Report.Crash;
        action;
        proc;
        count;
        detail =
          Printf.sprintf "%s raised %s"
            (match what with `Guard -> "guard" | `Apply -> "statement")
            exn }

  let run ?(verify = true) ?cap ?store_cap ?(allow = []) ~algo ~topo h =
    let t = Tb.build ~verify ?cap ?store_cap h in
    let n = H.n h in
    let labels = Tb.labels t in
    let findings = Report.tally () in
    List.iter
      (fun (i, count) -> Report.note findings (finding_of_incident i count))
      (Tb.incidents t);
    let complete = Tb.complete t in
    let guard_true = Tb.guard_true t in
    let report =
      Report.build ~algo ~topo ~tier:"exact" ~configs:(Tb.cells t)
        ~evals:(Tb.cells t) ~allow ~proven:complete ~labels ~guard_true
        ~overlaps:(Tb.overlaps t)
        ~interference:(Tb.interference t)
        findings
    in
    let live =
      List.filteri (fun i _ -> guard_true.(i) > 0) (Array.to_list labels)
    in
    let proc_status =
      List.filter_map
        (fun p ->
          match Tb.status t p with
          | `Built -> None
          | `Streamed r | `Skipped r -> Some (p, r))
        (List.init n Fun.id)
    in
    let coverage =
      { cells = Tb.cells t;
        seconds = Tb.seconds t;
        complete;
        stored = Tb.built t;
        tainted = Tb.tainted t;
        live;
        proc_status }
    in
    (report, coverage, t)
end

(* One (system, topology) cell of `ccsim lint': the sampled tier, and the
   exact tier, agreement gate, dead-action reclassification, symmetry
   admission and artifacts when the configuration asks for them. *)

module Systems = Snapcc_mc.Systems
module Json = Snapcc_telemetry.Json

type config = {
  seed : int;
  seeds : int;
  max_configs : int;
  exact : bool;
  symmetry : bool;
  table_cap : int option;
  tables : string option;
  orbits : string option;
}

let config ?(seed = 0) ?(seeds = 24) ?(max_configs = 240) ?(exact = false)
    ?(symmetry = false) ?table_cap ?tables ?orbits () =
  (* the admission proves against the exact tables; each artifact implies
     the tier that writes it *)
  let symmetry = symmetry || orbits <> None in
  { seed;
    seeds;
    max_configs;
    exact = exact || symmetry || tables <> None;
    symmetry;
    table_cap;
    tables;
    orbits }

let waiver (r : Systems.resolved) =
  if Systems.local_over r.Systems.entry r.Systems.token then []
  else [ Report.Locality ]

type exact = {
  report : Report.t;
  coverage : Exact.coverage;
  unmatched : Report.finding list;
  symmetry : Symmetry.outcome option;
}

type cell = {
  name : string;
  topo : string;
  sampled : Report.t;
  exact : exact option;
}

let run cfg (r : Systems.resolved) ~topo h =
  let (module S : Snapcc_mc.System.S) = r.Systems.sys in
  let module An = Analyze.Make (S) in
  let allow = waiver r in
  let name = r.Systems.name in
  let sampled =
    An.analyze ~seed:cfg.seed ~seeds:cfg.seeds ~max_configs:cfg.max_configs
      ~allow ~topo h
  in
  if not cfg.exact then { name; topo; sampled; exact = None }
  else begin
    let module Ex = Exact.Make (S) in
    let module Tb = Snapcc_mc.Tables.Make (S) in
    let module Sym = Symmetry.Make (S) in
    let report, coverage, tb =
      Ex.run ?cap:cfg.table_cap ~allow ~algo:S.name ~topo h
    in
    let file dir kind =
      Filename.concat dir (Printf.sprintf "%s-%s-%s.txt" kind name topo)
    in
    Option.iter
      (fun dir ->
        Artifact.save (file dir "tables") (Tb.to_portable ~algo:S.name ~topo tb))
      cfg.tables;
    let symmetry =
      if not cfg.symmetry then None
      else begin
        let so = Sym.run ?cap:cfg.table_cap h ~tables:tb in
        Option.iter
          (fun dir -> Symmetry.save (file dir "orbits") ~algo:S.name ~topo h so)
          cfg.orbits;
        Some so
      end
    in
    { name;
      topo;
      sampled =
        Report.classify_dead ~proven:report.Report.dead_proven
          ~live:coverage.Exact.live sampled;
      exact =
        Some
          { report;
            coverage;
            unmatched = Exact.agreement ~exact:report ~sampled;
            symmetry } }
  end

let ok c =
  Report.ok c.sampled
  &&
  match c.exact with
  | None -> true
  | Some e -> Report.ok e.report && e.unmatched = []

(* ---- JSON ---- *)

let strings xs = Json.List (List.map (fun s -> Json.String s) xs)

let finding_json (f : Report.finding) =
  Json.Obj
    [ ("rule", Json.String (Report.rule_name f.Report.rule));
      ("action", Json.String f.Report.action);
      ("proc", Json.Int f.Report.proc);
      ("count", Json.Int f.Report.count);
      ("detail", Json.String f.Report.detail) ]

let report_fields (r : Report.t) =
  [ ("algo", Json.String r.Report.algo);
    ("topo", Json.String r.Report.topo);
    ("tier", Json.String r.Report.tier);
    ("ok", Json.Bool (Report.ok r));
    ("configs", Json.Int r.Report.configs);
    ("evals", Json.Int r.Report.evals);
    ("findings", Json.List (List.map finding_json r.Report.findings));
    ("waived", Json.List (List.map finding_json r.Report.waived));
    ("dead", strings r.Report.dead);
    ("dead_proven", strings r.Report.dead_proven);
    ("dead_unreached", strings r.Report.dead_unreached) ]

let symmetry_json (so : Symmetry.outcome) =
  Json.Obj
    [ ("group_order", Json.Int (Snapcc_mc.Symmetry.order so.Symmetry.group));
      ("generators",
       Json.Int (List.length so.Symmetry.group.Snapcc_mc.Symmetry.gens));
      ("aut_order", Json.Int so.Symmetry.aut_order);
      ("candidates", Json.Int so.Symmetry.candidates);
      ("admitted", strings so.Symmetry.admitted);
      ("rejected",
       Json.List
         (List.map
            (fun (name, reason) ->
              Json.Obj
                [ ("name", Json.String name); ("reason", Json.String reason) ])
            so.Symmetry.rejected));
      ("pairs", Json.Int so.Symmetry.pairs);
      ("seconds", Json.Float so.Symmetry.seconds) ]

let exact_json (e : exact) =
  let cov = e.coverage in
  Json.Obj
    (report_fields e.report
    @ (match e.symmetry with
      | Some so -> [ ("symmetry", symmetry_json so) ]
      | None -> [])
    @ [ ("cells", Json.Int cov.Exact.cells);
        ("seconds", Json.Float cov.Exact.seconds);
        ("complete", Json.Bool cov.Exact.complete);
        ("stored", Json.Bool cov.Exact.stored);
        ("tainted", Json.Bool cov.Exact.tainted);
        ("proc_status",
         Json.List
           (List.map
              (fun (p, reason) ->
                Json.Obj
                  [ ("proc", Json.Int p); ("reason", Json.String reason) ])
              cov.Exact.proc_status));
        ("agreement_unmatched", Json.List (List.map finding_json e.unmatched))
      ])

let to_json (cfg : config) cells =
  Json.Obj
    ([ ("ok", Json.Bool (List.for_all ok cells));
       ("reports",
        Json.List (List.map (fun c -> Json.Obj (report_fields c.sampled)) cells))
     ]
    @
    if cfg.exact then
      [ ("exact",
         Json.List
           (List.filter_map (fun c -> Option.map exact_json c.exact) cells))
      ]
    else [])

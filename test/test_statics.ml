(* The static analyzer (lib/statics): each check fires on a deliberately
   broken fixture algorithm, the paper's algorithms and both §6 baselines
   pass clean, and the static locality pass agrees with the engine's
   dynamic [check_locality] assert on the same fixture. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module Daemon = Snapcc_runtime.Daemon
module Obs = Snapcc_runtime.Obs
module Report = Snapcc_statics.Report
module X = Snapcc_experiments.Algos

let check = Alcotest.(check bool)

let has_rule (r : Report.t) rule =
  List.exists (fun (f : Report.finding) -> f.rule = rule) r.findings

let rules_of (r : Report.t) =
  List.sort_uniq compare
    (List.map (fun (f : Report.finding) -> Report.rule_name f.rule) r.findings)

(* ---- fixture: a guard reading a non-neighbor (locality violation) ---- *)

module Nonlocal = struct
  type state = int

  let name = "fixture-nonlocal"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng 3

  let actions h =
    [ { Model.label = "peek";
        guard =
          (fun ctx ->
            (* vertex 0 reads the far end of the path *)
            ctx.Model.self = 0
            && ctx.Model.read (H.n h - 1) >= 0
            && ctx.Model.read ctx.Model.self < 2);
        apply = (fun ctx -> ctx.Model.read ctx.Model.self + 1) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

(* ---- fixture: a statement mutating a neighbor's state in place ---- *)

module Foreign_write = struct
  type state = { mutable v : int }

  let name = "fixture-foreign-write"
  let pp_state ppf st = Format.pp_print_int ppf st.v
  let equal_state (a : state) b = a.v = b.v
  let init _ _ = { v = 0 }
  let random_init _ rng _ = { v = Random.State.int rng 3 }

  let actions _h =
    [ { Model.label = "poke";
        guard = (fun ctx -> (ctx.Model.read ctx.Model.self).v < 2);
        apply =
          (fun ctx ->
            let other = if ctx.Model.self = 0 then 1 else 0 in
            (* forbidden: writes a state the process does not own *)
            (ctx.Model.read other).v <- 99;
            { v = (ctx.Model.read ctx.Model.self).v + 1 }) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

(* ---- fixture: a statement consulting hidden global state ---- *)

module Nondet = struct
  type state = int

  let name = "fixture-nondet"
  let flip = ref false
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng 2

  let actions _h =
    [ { Model.label = "coin";
        guard = (fun ctx -> ctx.Model.read ctx.Model.self = 0);
        apply =
          (fun _ctx ->
            flip := not !flip;
            if !flip then 1 else 2) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
end

let pair () = H.create ~n:2 [ [ 0; 1 ] ]

(* System.S views of the fixtures, for the exact tier *)

module Nonlocal_sys = struct
  include Nonlocal

  let domain _ _ = [ 0; 1; 2 ]
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

module Nondet_sys = struct
  include Nondet

  let domain _ _ = [ 0; 1; 2 ]
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

(* ---- fixture: an always-false guard next to a rarely-enabled one ---- *)

module Deadish = struct
  type state = int

  let name = "fixture-deadish"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng 3

  let actions _h =
    [ { Model.label = "never";
        guard = (fun _ -> false);
        apply = (fun ctx -> ctx.Model.read ctx.Model.self) };
      { Model.label = "bump";
        guard = (fun ctx -> ctx.Model.read ctx.Model.self < 2);
        apply = (fun ctx -> ctx.Model.read ctx.Model.self + 1) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
  let domain _ _ = [ 0; 1; 2 ]
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

(* ---- fixture: a non-local read only outside the declared domain ----

   Every process's guard reads the far end of the path, but only from
   state 3, which [random_init] draws and [domain] omits: the sampled tier
   sees the read, the exact tier (over the domain) cannot. *)

module Hidden_read = struct
  type state = int

  let name = "fixture-hidden-read"
  let pp_state = Format.pp_print_int
  let equal_state = Int.equal
  let init _ _ = 0
  let random_init _ rng _ = Random.State.int rng 4

  let actions h =
    [ { Model.label = "peek";
        guard =
          (fun ctx ->
            ctx.Model.read ctx.Model.self = 3
            && ctx.Model.read (H.n h - 1) >= 0);
        apply = (fun _ -> 0) };
    ]

  let observe _ _ _ = Obs.make Obs.Idle
  let domain _ _ = [ 0; 1; 2 ]
  let canon _ _ s = s
  let rename _ ~pi:_ ~eperm:_ _ s = s
  let state_symmetries _ = []
end

let test_nonlocal_fires () =
  let module An = Snapcc_statics.Analyze.Make (Nonlocal) in
  let r = An.analyze ~seeds:4 ~max_configs:40 ~topo:"path4" (Families.path 4) in
  check "locality violation reported" true (has_rule r Report.Locality);
  check "reported under the expected rule name" true
    (List.mem "locality" (rules_of r));
  check "report is a failure" false (Report.ok r);
  check "machine-readable lines mention the rule" true
    (List.exists
       (fun l ->
         List.exists (fun part -> part = "rule=locality") (String.split_on_char ' ' l))
       (Report.to_lines r))

let test_foreign_write_fires () =
  let module An = Snapcc_statics.Analyze.Make (Foreign_write) in
  let r = An.analyze ~seeds:4 ~max_configs:40 ~topo:"pair" (pair ()) in
  check "write-ownership violation reported" true (has_rule r Report.Write_ownership);
  check "reported under the expected rule name" true
    (List.mem "write-ownership" (rules_of r));
  (* both processes are neighbors: the foreign write is not a locality bug *)
  check "no locality finding" false (has_rule r Report.Locality)

let test_nondet_fires () =
  let module An = Snapcc_statics.Analyze.Make (Nondet) in
  let r = An.analyze ~seeds:4 ~max_configs:40 ~topo:"pair" (pair ()) in
  check "determinism violation reported" true (has_rule r Report.Determinism);
  check "reported under the expected rule name" true
    (List.mem "determinism" (rules_of r))

let test_clean_passes () =
  let topo = "fig2" and h = Families.fig2 () in
  let run (module A : Model.ALGO) allow =
    let module An = Snapcc_statics.Analyze.Make (A) in
    An.analyze ~seeds:8 ~max_configs:80 ~allow ~topo h
  in
  List.iter
    (fun (label, m) ->
      let r = run m [] in
      check (label ^ " passes clean") true (Report.ok r);
      check (label ^ " has nothing waived") true (r.Report.waived = []))
    [ ("cc1", (module X.Cc1 : Model.ALGO)); ("cc2", (module X.Cc2));
      ("cc3", (module X.Cc3)); ("dining", (module X.Dining)) ];
  (* the centralized baseline deliberately violates locality; with the
     documented waiver it must pass, and the deviation must be visible *)
  let r = run (module X.Central) [ Report.Locality ] in
  check "central passes with the locality waiver" true (Report.ok r);
  check "central's non-local reads are reported as waived" true
    (r.Report.waived <> []);
  let r_strict = run (module X.Central) [] in
  check "central fails without the waiver" false (Report.ok r_strict)

let test_structural_stats () =
  let module An = Snapcc_statics.Analyze.Make (X.Cc1) in
  let r = An.analyze ~seeds:8 ~max_configs:80 ~topo:"fig2" (Families.fig2 ()) in
  check "priority order is load-bearing (overlaps observed)" true
    (r.Report.overlaps <> []);
  List.iter
    (fun (o : Report.overlap) ->
      check "every overlap involves >= 2 actions" true (List.length o.labels >= 2))
    r.Report.overlaps;
  check "neighbor read/write interference observed" true
    (r.Report.interference <> [])

(* The dynamic counterpart: the engine's [check_locality] assert must raise
   on the same crafted non-local read the static pass flags. *)
let test_engine_check_locality_agrees () =
  let h = Families.path 4 in
  let module E = Snapcc_runtime.Engine.Make (Nonlocal) in
  let eng = E.create ~check_locality:true ~daemon:Daemon.synchronous h in
  (match E.step eng ~inputs:Model.no_inputs with
   | exception Failure msg ->
     check "dynamic check names the violation" true
       (String.length msg >= 8 && String.sub msg 0 8 = "locality")
   | _ -> Alcotest.fail "check_locality did not raise on a non-local read");
  (* without the check the same read goes through *)
  let eng2 = E.create ~daemon:Daemon.synchronous h in
  let r = E.step eng2 ~inputs:Model.no_inputs in
  check "unchecked engine executes the action" true (r.Model.executed <> []);
  let module An = Snapcc_statics.Analyze.Make (Nonlocal) in
  let report = An.analyze ~seeds:4 ~max_configs:40 ~topo:"path4" h in
  check "static pass flags the same algorithm" true
    (has_rule report Report.Locality)

(* ---- waiver path: an allow-listed rule is waived, never fatal; rules
   not on the list still fail ---- *)

let test_waiver_path () =
  let module An = Snapcc_statics.Analyze.Make (Nonlocal) in
  let h = Families.path 4 in
  let r = An.analyze ~seeds:4 ~max_configs:40 ~allow:[ Report.Locality ]
      ~topo:"path4" h in
  check "waived rule is not fatal" true (Report.ok r);
  check "the waived finding is still visible" true
    (List.exists
       (fun (f : Report.finding) -> f.rule = Report.Locality)
       r.Report.waived);
  check "waived findings never reach the violation list" false
    (has_rule r Report.Locality);
  (* waiving an unrelated rule must not mask the real one *)
  let module An2 = Snapcc_statics.Analyze.Make (Foreign_write) in
  let r2 = An2.analyze ~seeds:4 ~max_configs:40 ~allow:[ Report.Locality ]
      ~topo:"pair" (pair ()) in
  check "non-listed rule still fails" false (Report.ok r2);
  check "non-listed rule reported as a violation" true
    (has_rule r2 Report.Write_ownership)

(* ---- exact tier: broken fixtures fire absolutely ---- *)

let test_exact_fixtures_fire () =
  let module Ex = Snapcc_statics.Exact.Make (Nonlocal_sys) in
  let r, cov, _ = Ex.run ~algo:"nonlocal" ~topo:"path4" (Families.path 4) in
  check "exact locality violation" true (has_rule r Report.Locality);
  check "exact pass is complete" true cov.Snapcc_statics.Exact.complete;
  check "exact tier label" true (r.Report.tier = "exact");
  let module Ex2 = Snapcc_statics.Exact.Make (Nondet_sys) in
  let r2, _, _ = Ex2.run ~algo:"nondet" ~topo:"pair" (pair ()) in
  check "exact determinism violation" true (has_rule r2 Report.Determinism)

(* ---- exact tier: dead-action proofs and sampled reclassification ---- *)

let test_exact_dead_classification () =
  let module Ex = Snapcc_statics.Exact.Make (Deadish) in
  let r, cov, _ = Ex.run ~algo:"deadish" ~topo:"pair" (pair ()) in
  check "always-false guard proven dead" true
    (r.Report.dead_proven = [ "never" ]);
  check "satisfiable guard reported live" true
    (List.mem "bump" cov.Snapcc_statics.Exact.live);
  (* reclassify a sampled report on that evidence *)
  let module An = Snapcc_statics.Analyze.Make (Deadish) in
  let s = An.analyze ~seeds:4 ~max_configs:40 ~topo:"pair" (pair ()) in
  check "sampled tier suspects the dead action" true
    (List.mem "never" s.Report.dead);
  let s' =
    Report.classify_dead ~proven:r.Report.dead_proven
      ~live:cov.Snapcc_statics.Exact.live s
  in
  check "suspect moved to proven" true (List.mem "never" s'.Report.dead_proven);
  check "no unclassified suspects remain" true (s'.Report.dead = []);
  check "machine lines distinguish the proof" true
    (List.exists
       (fun l ->
         List.exists
           (fun part -> part = "proven=dead-action")
           (String.split_on_char ' ' l))
       (Report.to_lines s'))

(* ---- exact vs sampled agreement: CC1/CC2/CC3 over single2 and line3
   (the acceptance families), one Lint cell each.  Every sampled violation
   must be reproduced by the exact tier (here: both are clean), and with a
   complete exact pass every sampled dead suspect must classify as proven
   or unreached-in-sample. ---- *)

module Lint = Snapcc_statics.Lint
module Systems = Snapcc_mc.Systems

let resolve name =
  match Systems.resolve name with
  | Some r -> r
  | None -> Alcotest.failf "unknown system %s" name

let exact_cfg = Lint.config ~seeds:8 ~max_configs:80 ~exact:true ()

let exact_of (c : Lint.cell) =
  match c.Lint.exact with
  | Some e -> e
  | None -> Alcotest.fail "the exact tier did not run"

let test_exact_agreement () =
  List.iter
    (fun key ->
      List.iter
        (fun (topo, h) ->
          let tag = key ^ " on " ^ topo in
          let c = Lint.run exact_cfg (resolve key) ~topo h in
          let e = exact_of c in
          check (tag ^ ": sampled clean") true (Report.ok c.Lint.sampled);
          check (tag ^ ": exact clean") true (Report.ok e.Lint.report);
          check (tag ^ ": exact pass complete") true
            e.Lint.coverage.Snapcc_statics.Exact.complete;
          check (tag ^ ": tiers agree") true (e.Lint.unmatched = []);
          check (tag ^ ": cell ok") true (Lint.ok c);
          check (tag ^ ": every dead suspect classified") true
            (c.Lint.sampled.Report.dead = []))
        [ ("single2", Families.single 2); ("line3", Families.path 3) ])
    [ "cc1"; "cc2"; "cc3" ]

(* ---- the agreement gate's failing path: the sampled tier's locality
   finding lies outside the declared domain, so the exact tier cannot
   reproduce it; the cell lists it as unmatched and is not ok ---- *)

let test_agreement_gate_fails () =
  let entry =
    { Systems.key = Hidden_read.name;
      title = "non-local read outside the declared domain";
      role = Systems.Paper;
      token = None;
      tag = None;
      local = true;
      make = (fun _ -> (module Hidden_read : Snapcc_mc.System.S)) }
  in
  let r =
    { Systems.name = entry.Systems.key;
      entry;
      token = None;
      tag = None;
      sys = entry.Systems.make "" }
  in
  check "a local composition waives nothing" true (Lint.waiver r = []);
  let c = Lint.run exact_cfg r ~topo:"path4" (Families.path 4) in
  let e = exact_of c in
  check "sampled tier reports locality" true
    (has_rule c.Lint.sampled Report.Locality);
  check "exact tier is clean over the domain" true (Report.ok e.Lint.report);
  check "the exact pass completed" true
    e.Lint.coverage.Snapcc_statics.Exact.complete;
  check "the finding is unmatched" true
    (e.Lint.unmatched <> []
    && List.for_all
         (fun (f : Report.finding) -> f.Report.rule = Report.Locality)
         e.Lint.unmatched);
  check "unmatched = the sampled findings" true
    (e.Lint.unmatched = c.Lint.sampled.Report.findings);
  check "the cell is not ok" false (Lint.ok c)

(* ---- the locality waiver follows the token composition: over vring
   (a non-local oracle) cc1's process 0 reads process 2 of line3, so the
   exact tier waives those findings; over tree nothing is waived ---- *)

let test_exact_vring_waived () =
  let entry = Option.get (Systems.find "cc1") in
  let central = Option.get (Systems.find "central") in
  let dining = Option.get (Systems.find "dining") in
  check "cc1 over tree is local" true (Systems.local_over entry (Some "tree"));
  check "cc1 over vring is not" false (Systems.local_over entry (Some "vring"));
  check "dining ignores the token" true
    (Systems.local_over dining (Some "vring"));
  check "central is never local" false (Systems.local_over central None);
  check "central's waiver" true
    (Lint.waiver (resolve "central") = [ Report.Locality ]);
  let cfg = Lint.config ~seeds:4 ~max_configs:40 ~exact:true () in
  List.iter
    (fun token ->
      let r = resolve ("cc1-" ^ token) in
      check ("cc1 over " ^ token ^ ": locality waived iff vring")
        (token = "vring")
        (Lint.waiver r = [ Report.Locality ]);
      let c = Lint.run cfg r ~topo:"line3" (Families.path 3) in
      let r = (exact_of c).Lint.report in
      check ("cc1 over " ^ token ^ ": verdict ok") true (Report.ok r);
      check ("cc1 over " ^ token ^ ": no violation") true (r.Report.findings = []);
      check ("cc1 over " ^ token ^ ": waived iff vring") (token = "vring")
        (r.Report.waived <> []);
      check ("cc1 over " ^ token ^ ": only process 0's reads are waived") true
        (List.for_all
           (fun (f : Report.finding) -> f.rule = Report.Locality && f.proc = 0)
           r.Report.waived))
    [ "vring"; "tree" ]

(* ---- an artifact directory implies the tier that writes it ---- *)

let with_temp_dir f =
  let dir = Filename.temp_dir "snapcc-lint" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_artifact_flags_imply_tiers () =
  let single2 = Families.single 2 in
  with_temp_dir (fun dir ->
      let cfg = Lint.config ~seeds:4 ~max_configs:40 ~tables:dir () in
      check "--tables implies the exact tier" true cfg.Lint.exact;
      check "--tables alone runs no admission" false cfg.Lint.symmetry;
      let c = Lint.run cfg (resolve "cc1") ~topo:"single2" single2 in
      check "the exact tier ran" true (c.Lint.exact <> None);
      match
        Snapcc_statics.Artifact.load
          (Filename.concat dir "tables-cc1-single2.txt")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "table artifact: %s" e);
  with_temp_dir (fun dir ->
      let cfg = Lint.config ~seeds:4 ~max_configs:40 ~orbits:dir () in
      check "--orbits implies the admission" true cfg.Lint.symmetry;
      check "--orbits implies the exact tier" true cfg.Lint.exact;
      let c = Lint.run cfg (resolve "cc1") ~topo:"single2" single2 in
      check "the admission ran" true
        (match c.Lint.exact with
        | Some e -> e.Lint.symmetry <> None
        | None -> false);
      match
        Snapcc_statics.Symmetry.verify_file
          (Filename.concat dir "orbits-cc1-single2.txt")
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "orbit certificate: %s" e)

(* ---- table artifacts round-trip ---- *)

let test_artifact_round_trip () =
  let entry = Option.get (Snapcc_mc.Systems.find "cc1") in
  let module S = (val entry.Snapcc_mc.Systems.make "tree") in
  let module Tb = Snapcc_mc.Tables.Make (S) in
  let t = Tb.build (Families.single 2) in
  check "tables stored" true (Tb.built t);
  let p = Tb.to_portable ~algo:"cc1" ~topo:"single2" t in
  let module A = Snapcc_statics.Artifact in
  (match A.of_lines (A.to_lines p) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok p' -> check "lines round-trip preserves the tables" true (p = p'));
  let file = Filename.temp_file "snapcc-tables" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      A.save file p;
      match A.load file with
      | Error e -> Alcotest.failf "file round-trip failed: %s" e
      | Ok p' -> check "file round-trip preserves the tables" true (p = p'));
  (match A.of_lines [ "bogus" ] with
  | Ok _ -> Alcotest.fail "bad magic accepted"
  | Error _ -> ())

(* ---- the table decoder is total on hostile input ---- *)

(* One table over two processes of two states each (process 0's), its
   mode rows given as (declared length, RLE row). *)
let artifact ?(n = 2) ?(support = "0 1") ?(sizes = "2 2") ?(strides = "2 1")
    ?(nmodes = 4) ?(nlabels = "1") rows =
  let module A = Snapcc_statics.Artifact in
  [ A.magic; "algo fixture"; "topo pair"; Printf.sprintf "n %d" n;
    "nlabels " ^ nlabels; "act";
    "dom " ^ String.concat " " (List.init n (fun _ -> "2"));
    "proc 0 table"; "support " ^ support; "sizes " ^ sizes;
    "strides " ^ strides; Printf.sprintf "nmodes %d" nmodes ]
  @ List.concat_map (fun (len, row) -> [ Printf.sprintf "mode %d" len; row ]) rows
  @ List.init (n - 1) (fun i -> Printf.sprintf "proc %d skipped fixture" (i + 1))
  @ [ "end" ]

let test_artifact_hostile () =
  let module A = Snapcc_statics.Artifact in
  let quiet = List.init 4 (fun _ -> (4, "-1*4")) in
  let decodes what lines =
    match A.of_lines lines with
    | Ok _ -> true
    | Error _ -> false
    | exception e ->
      Alcotest.failf "%s: the decoder raised %s" what (Printexc.to_string e)
  in
  check "the fixture decodes" true (decodes "fixture" (artifact quiet));
  List.iter
    (fun (what, lines) ->
      check (what ^ ": Error") false (decodes what lines))
    [ ( "mode rows of different lengths",
        artifact [ (4, "-1*4"); (3, "-1*3"); (4, "-1*4"); (4, "-1*4") ] );
      ("mode rows shorter than the sizes' product",
       artifact (List.init 4 (fun _ -> (3, "-1*3"))));
      ("mode rows longer than the sizes' product",
       artifact (List.init 4 (fun _ -> (5, "-1*5"))));
      ("three modes", artifact ~nmodes:3 (List.init 3 (fun _ -> (4, "-1*4"))));
      ("a negative mode length",
       artifact (List.init 4 (fun _ -> (-4, "-1*4"))));
      ("an RLE row past its length",
       artifact [ (4, "-1*5"); (4, "-1*4"); (4, "-1*4"); (4, "-1*4") ]);
      ("a zero size", artifact ~sizes:"0 2" ~strides:"2 1" quiet);
      ("a negative size", artifact ~sizes:"-2 -2" ~strides:"-2 1" quiet);
      ("a product past the decoder's bound",
       artifact ~sizes:"4611686018427387903 2" ~strides:"2 1" quiet);
      ("strides that are not row-major", artifact ~strides:"1 2" quiet);
      ("a support outside the processes", artifact ~support:"0 2" quiet);
      ("a support out of order", artifact ~support:"1 0" quiet);
      ("a support without its process",
       artifact ~n:3 ~support:"1 2" quiet);
      ("a negative label count", artifact ~nlabels:"-1" quiet);
      ("a label count past the file", artifact ~nlabels:"1000000000000" quiet) ];
  (* a table holding one more distinct row than there are row codes *)
  let wide k =
    artifact ~n:1 ~support:"0" ~sizes:(string_of_int k) ~strides:"1"
      ((k, String.concat " " (List.init k string_of_int))
       :: List.init 3 (fun _ -> (k, Printf.sprintf "-1*%d" k)))
  in
  let codes = Snapcc_mc.Tables.max_rows in
  check "as many distinct rows as row codes decode" true
    (decodes "all the row codes" (wide codes));
  check "one distinct row past the row codes: Error" false
    (decodes "past the row codes" (wide (codes + 1)))

let suite =
  [ ( "statics",
      [ Alcotest.test_case "non-local read fires locality" `Quick test_nonlocal_fires;
        Alcotest.test_case "foreign in-place write fires write-ownership" `Quick
          test_foreign_write_fires;
        Alcotest.test_case "hidden global state fires determinism" `Quick
          test_nondet_fires;
        Alcotest.test_case "CC1/CC2/CC3 and both baselines pass clean" `Quick
          test_clean_passes;
        Alcotest.test_case "overlap and interference statistics" `Quick
          test_structural_stats;
        Alcotest.test_case "dynamic check_locality agrees with the static pass"
          `Quick test_engine_check_locality_agrees;
        Alcotest.test_case "allow-waiver path" `Quick test_waiver_path;
        Alcotest.test_case "exact tier: broken fixtures fire" `Quick
          test_exact_fixtures_fire;
        Alcotest.test_case "exact tier: dead-action proofs and reclassification"
          `Quick test_exact_dead_classification;
        Alcotest.test_case "exact vs sampled agreement (cc1/cc2/cc3)" `Quick
          test_exact_agreement;
        Alcotest.test_case "exact tier: vring locality findings are waived"
          `Quick test_exact_vring_waived;
        Alcotest.test_case "agreement gate fails on an unmatched finding"
          `Quick test_agreement_gate_fails;
        Alcotest.test_case "artifact flags imply their tier" `Quick
          test_artifact_flags_imply_tiers;
        Alcotest.test_case "table artifact round-trip" `Quick
          test_artifact_round_trip;
        Alcotest.test_case "table artifact decoder is total" `Quick
          test_artifact_hostile;
      ] );
  ]

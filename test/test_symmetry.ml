(* Static symmetry admission (lib/statics/symmetry) and quotient
   exploration (lib/mc/explore ?symmetry): the admitted groups are the
   expected ones (the vring counter gauge; nothing else survives the
   id-based tie-breaks), quotient and full exploration agree on every
   verdict with the state count divided exactly by the group order,
   lifted counterexamples replay concretely, and the snapcc-orbits
   certificates round-trip through the independent verifier (which also
   rejects tampered ones). *)

open Snapcc_mc
module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Sy = Snapcc_mc.Symmetry
module Sym = Snapcc_statics.Symmetry

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let single2 = Families.single 2
let line3 = Families.by_name "line3"
let triangle = Families.pair_ring 3

let system key =
  match Systems.find key with
  | Some e -> e
  | None -> Alcotest.failf "unknown system %s" key

(* ---- admission: the vring counter gauge and only it ---- *)

(* Run the analyzer for (key, token, h).  All parity tests below go
   through here so the group used for quotienting is always an admitted
   one (the soundness precondition of ?symmetry). *)
let analyze key token h =
  let entry = system key in
  let module S = (val entry.Systems.make token) in
  let module Tb = Tables.Make (S) in
  let module A = Sym.Make (S) in
  let tb = Tb.build h in
  A.run h ~tables:tb

let test_admission_vring_gauge () =
  (* the counter shift v ↦ v+1 mod K with K = n+1 generates Z_{n+1} *)
  List.iter
    (fun (key, h, topo, k) ->
      let so = analyze key "vring" h in
      let tag = key ^ "/vring/" ^ topo in
      checki (tag ^ " admits Z_" ^ string_of_int k) k (Sy.order so.Sym.group);
      check (tag ^ " vring-shift admitted") true
        (List.mem "vring-shift" so.Sym.admitted);
      check (tag ^ " group closed") true so.Sym.group.Sy.complete)
    [ ("cc1", single2, "single2", 3);
      ("cc2", single2, "single2", 3);
      ("cc3", single2, "single2", 3);
      ("cc1", line3, "line3", 4) ]

let test_admission_rejects_vertex_permutations () =
  (* cc1/cc2/cc3 break ties by process identifier, so no non-trivial
     vertex permutation commutes — over the null token (no internal
     symmetry to rescue the group) the admitted group is trivial even
     though the triangle has non-trivial structural automorphisms *)
  let so = analyze "cc1" "null" triangle in
  check "triangle has structural automorphisms" true (so.Sym.aut_order > 1);
  check "candidates were examined" true (so.Sym.candidates > 0);
  checki "cc1/null/triangle admits only the identity" 1
    (Sy.order so.Sym.group);
  check "every candidate carries a rejection reason" true
    (List.length so.Sym.rejected = so.Sym.candidates)

let test_admission_inverted_priority_trivial () =
  (* cc1-inverted (priority order inverted) must admit only the trivial
     group over a counter-free token; the vring gauge would survive the
     inversion, so the discriminating check uses `tree' *)
  let so = analyze "cc1-inverted" "tree" single2 in
  checki "cc1-inverted/tree/single2 admits only the identity" 1
    (Sy.order so.Sym.group);
  check "admitted list empty" true (so.Sym.admitted = [])

(* ---- parity: quotient vs full exploration ---- *)

let fairness_ok ~n ~n_configs ~succs ~convenes ~enabled ~waiting =
  let v =
    Fairness.analyze ~n ~n_configs ~succs ~convenes ~enabled_mask:enabled
      ~committee_waiting:waiting ()
  in
  (v.Fairness.deadlocks = [], v.Fairness.livelocks = [])

let parity key token h topo expect_order =
  let entry = system key in
  let module S = (val entry.Systems.make token) in
  let module Tb = Tables.Make (S) in
  let module A = Sym.Make (S) in
  let module Ex = Explore.Make (S) in
  let tag = key ^ "/" ^ token ^ "/" ^ topo in
  let tb = Tb.build h in
  let so = A.run h ~tables:tb in
  checki (tag ^ " expected group order") expect_order (Sy.order so.Sym.group);
  let full = Ex.explore ~tables:tb h in
  let quot = Ex.explore ~tables:tb ~symmetry:so.Sym.group h in
  check (tag ^ " full complete") true (Ex.complete full);
  check (tag ^ " quotient complete") true (Ex.complete quot);
  checki (tag ^ " quotient order recorded") expect_order
    (Ex.symmetry_order quot);
  (* the vring gauge acts freely (it shifts every counter), so the
     division is exact, not just an upper bound *)
  checki
    (tag ^ " configs divided exactly by the group order")
    (Ex.n_configs full)
    (Ex.n_configs quot * expect_order);
  check (tag ^ " same safety verdict") true
    (Ex.violations full = [] && Ex.violations quot = []);
  check (tag ^ " both domains closed") true
    (Ex.escapees full = [] && Ex.escapees quot = []);
  check (tag ^ " no dead action appears under quotienting") true
    (Ex.dead_actions quot = Ex.dead_actions full);
  let verdict r =
    fairness_ok ~n:(H.n h) ~n_configs:(Ex.n_configs r)
      ~succs:(Ex.succs_inout r) ~convenes:(Ex.convening r)
      ~enabled:(Ex.enabled_inout r) ~waiting:(Ex.committee_waiting r)
  in
  let fd, fl = verdict full and qd, ql = verdict quot in
  check (tag ^ " same deadlock verdict") true (fd = qd);
  check (tag ^ " same livelock verdict") true (fl = ql);
  check (tag ^ " no deadlock, no livelock") true (fd && fl)

let test_parity_cc1_single2 () = parity "cc1" "vring" single2 "single2" 3
let test_parity_cc2_single2 () = parity "cc2" "vring" single2 "single2" 3
let test_parity_cc3_single2 () = parity "cc3" "vring" single2 "single2" 3
let test_parity_cc1_line3 () = parity "cc1" "vring" line3 "line3" 4

(* ---- enumeration parity: stored, streamed and skipped tables ---- *)

(* [Tables.enumerate] decodes a stored table but reruns the pass of a
   streamed ([~store_cap:0]) or skipped ([~cap:1]) one.  Every streamed cell
   is checked against the stored table's entry for the same cell, in the
   same odometer order (modes innermost).  A skipped build interned no
   successor, so its rerun may number escapees differently: it is compared
   by successor state.  Symmetry admission must not see the difference. *)
let enumeration_parity key token h topo =
  let entry = system key in
  let module S = (val entry.Systems.make token) in
  let module Tb = Tables.Make (S) in
  let module Enc = Encode.Make (S) in
  let module A = Sym.Make (S) in
  let tag = key ^ "/" ^ token ^ "/" ^ topo in
  let n = H.n h in
  let stored = Tb.build h in
  let streamed = Tb.build ~store_cap:0 h in
  let skipped = Tb.build ~cap:1 h in
  let same_id ~proc:_ e e' = e = e' in
  let same_state ~proc e e' =
    if e < 0 || e' < 0 then e = e'
    else
      Tables.entry_act e = Tables.entry_act e'
      && Tables.entry_changes e = Tables.entry_changes e'
      && Tables.entry_reads e = Tables.entry_reads e'
      && S.equal_state
           (Enc.state (Tb.enc skipped) proc (Tables.entry_succ e))
           (Enc.state (Tb.enc stored) proc (Tables.entry_succ e'))
  in
  let stream what t agree =
    for p = 0 to n - 1 do
      let support = ref [||] and sizes = ref [||] and count = ref 0 in
      let cfg = Array.make n 0 in
      let init ~support:s ~sizes:z =
        support := s;
        sizes := z;
        count := 0
      in
      let cell ~mode ~ids ~entry =
        let idx = ref 0 in
        Array.iteri
          (fun j id ->
            idx := (!idx * !sizes.(j)) + id;
            cfg.(!support.(j)) <- id)
          ids;
        if !count <> (!idx * Tables.nmodes) + mode then
          Alcotest.failf "%s %s p%d: pair %d out of odometer order" tag what p
            !count;
        let e' = Tb.entry stored ~mode ~proc:p cfg in
        if not (agree ~proc:p entry e') then
          Alcotest.failf "%s %s p%d: pair %d entry %d, stored %d" tag what p
            !count entry e';
        incr count
      in
      check (tag ^ " " ^ what ^ " enumerates") true
        (Tb.enumerate t ~proc:p ~init ~cell);
      check (tag ^ " " ^ what ^ " support") true (!support = Tb.support stored p);
      checki (tag ^ " " ^ what ^ " pairs")
        (Array.fold_left ( * ) Tables.nmodes !sizes)
        !count
    done
  in
  for p = 0 to n - 1 do
    check (tag ^ " stored") true (Tb.status stored p = `Built);
    check (tag ^ " streamed") true
      (match Tb.status streamed p with `Streamed _ -> true | _ -> false);
    check (tag ^ " skipped") true
      (match Tb.status skipped p with `Skipped _ -> true | _ -> false)
  done;
  stream "stored" stored same_id;
  stream "streamed" streamed same_id;
  stream "skipped" skipped same_state;
  let so = A.run h ~tables:stored in
  List.iter
    (fun (what, t) ->
      let so' = A.run h ~tables:t in
      checki (tag ^ " " ^ what ^ " group order") (Sy.order so.Sym.group)
        (Sy.order so'.Sym.group);
      check (tag ^ " " ^ what ^ " admitted") true
        (so.Sym.admitted = so'.Sym.admitted);
      checki (tag ^ " " ^ what ^ " symmetry pairs") so.Sym.pairs so'.Sym.pairs)
    [ ("streamed", streamed); ("skipped", skipped) ]

let test_enumeration_parity_single2 () =
  List.iter
    (fun key ->
      List.iter
        (fun token -> enumeration_parity key token single2 "single2")
        [ "vring"; "tree" ])
    [ "cc1"; "cc2"; "cc3" ]

let test_enumeration_parity_line3 () =
  enumeration_parity "cc1" "vring" line3 "line3"

(* ---- counterexample lifting: quotient paths replay concretely ---- *)

let test_lifted_cex_replays () =
  let entry = system "cc1-noready" in
  let module S = (val entry.Systems.make "vring") in
  let module Tb = Tables.Make (S) in
  let module A = Sym.Make (S) in
  let module Ex = Explore.Make (S) in
  let module CexM = Counterexample.Make (S) in
  let h = single2 in
  let tb = Tb.build h in
  let so = A.run h ~tables:tb in
  check "cc1-noready still admits the vring gauge" true
    (Sy.order so.Sym.group > 1);
  let r = Ex.explore ~tables:tb ~symmetry:so.Sym.group h in
  let v =
    match Ex.violations r with
    | v :: _ -> v
    | [] -> Alcotest.fail "cc1-noready: no violation under quotienting"
  in
  Alcotest.(check string)
    "violated rule is synchronization" "synchronization" v.Explore.rule;
  let root, steps = Ex.path_to r v.Explore.source in
  let steps =
    steps
    @
    if v.Explore.mode >= 0 then
      [ (v.Explore.mode, Ex.lift_selection r v.Explore.source v.Explore.selected) ]
    else []
  in
  let cex =
    Counterexample.of_safety ~algo:"cc1-noready" ~token:"vring" ~topo:"single2"
      ~rule:v.Explore.rule ~detail:v.Explore.detail ~init:root ~steps
  in
  match CexM.replay h cex with
  | CexM.Reproduced _ -> ()
  | CexM.Not_reproduced msg | CexM.Invalid msg ->
    Alcotest.failf "lifted counterexample did not replay: %s" msg

(* ---- certificates: round-trip, verifier, tamper rejection ---- *)

let cert_of key token h topo =
  let so = analyze key token h in
  Sym.certificate ~algo:key ~topo h so

let test_certificate_verifies () =
  let lines = cert_of "cc1" "vring" single2 "single2" in
  (match Sym.verify lines with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "certificate rejected: %s" msg);
  (* a trivial-group certificate is also valid *)
  let trivial = cert_of "cc1" "null" triangle "triangle3" in
  match Sym.verify trivial with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trivial certificate rejected: %s" msg

let test_certificate_file_roundtrip () =
  let entry = system "cc1" in
  let module S = (val entry.Systems.make "vring") in
  let module Tb = Tables.Make (S) in
  let module A = Sym.Make (S) in
  let so = A.run single2 ~tables:(Tb.build single2) in
  let file = Filename.temp_file "ccsim-orbits" ".txt" in
  Sym.save file ~algo:"cc1" ~topo:"single2" single2 so;
  let r = Sym.verify_file file in
  Sys.remove file;
  match r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "saved certificate rejected: %s" msg

let tampered lines ~pre ~subst =
  let hit = ref false in
  let out =
    List.map
      (fun l ->
        if (not !hit) && String.length l >= String.length pre
           && String.sub l 0 (String.length pre) = pre
        then begin
          hit := true;
          subst l
        end
        else l)
      lines
  in
  check ("tampered a `" ^ pre ^ "' line") true !hit;
  out

let test_certificate_tamper_rejected () =
  let lines = cert_of "cc1" "vring" single2 "single2" in
  let rejects what l =
    match Sym.verify l with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "verifier accepted %s" what
  in
  rejects "a wrong group order"
    (tampered lines ~pre:"group-order " ~subst:(fun _ -> "group-order 7"));
  rejects "a non-permutation pi"
    (tampered lines ~pre:"pi " ~subst:(fun _ -> "pi 0 0"));
  rejects "a non-bijective transport"
    (tampered lines ~pre:"sigma "
       ~subst:(fun l ->
         (* duplicate the last id: sigma stops being a bijection *)
         match String.rindex_opt l ' ' with
         | Some i ->
           let last = String.sub l (i + 1) (String.length l - i - 1) in
           l ^ " " ^ last
         | None -> l));
  rejects "a truncated certificate"
    (List.filter (fun l -> l <> "end") lines);
  (* sizes that would reach Array.make/Array.init: an Error, never an
     exception, on the group-carrying and on the trivial certificate *)
  let trivial = cert_of "cc1" "null" triangle "triangle3" in
  List.iter
    (fun (cert, domains) ->
      let l = tampered cert ~pre:"domains " ~subst:(fun _ -> domains) in
      match Sym.verify l with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "verifier accepted %S" domains
      | exception e ->
        Alcotest.failf "verifier raised %s on %S" (Printexc.to_string e)
          domains)
    [ (lines, "domains -1 48"); (lines, "domains 0 48");
      (trivial, "domains 4611686018427387903 144 72");
      (trivial, "domains -1 144 72");
      (trivial, "domains 16777216 1 1") ]

let suite =
  [ ( "symmetry",
      [ Alcotest.test_case "admission: vring gauge is Z_{n+1}" `Quick
          test_admission_vring_gauge;
        Alcotest.test_case "admission: id tie-breaks reject vertex perms"
          `Quick test_admission_rejects_vertex_permutations;
        Alcotest.test_case "admission: inverted priority admits nothing"
          `Quick test_admission_inverted_priority_trivial;
        Alcotest.test_case "parity: cc1/vring on single2" `Quick
          test_parity_cc1_single2;
        Alcotest.test_case "parity: cc2/vring on single2" `Quick
          test_parity_cc2_single2;
        Alcotest.test_case "parity: cc3/vring on single2" `Quick
          test_parity_cc3_single2;
        Alcotest.test_case "parity: cc1/vring on line3" `Slow
          test_parity_cc1_line3;
        Alcotest.test_case "enumeration parity: stored/streamed/skipped, single2"
          `Quick test_enumeration_parity_single2;
        Alcotest.test_case "enumeration parity: stored/streamed/skipped, line3"
          `Slow test_enumeration_parity_line3;
        Alcotest.test_case "lifted counterexample replays" `Quick
          test_lifted_cex_replays;
        Alcotest.test_case "certificate verifies (incl. trivial group)"
          `Quick test_certificate_verifies;
        Alcotest.test_case "certificate file round-trip" `Quick
          test_certificate_file_roundtrip;
        Alcotest.test_case "certificate tampering rejected" `Quick
          test_certificate_tamper_rejected ] ) ]

(* The algorithm catalog (lib/mc/systems.ml) is the one map from names to
   algorithms.  These tests pin what every command resolved before the
   commands shared it, keep algorithm names unambiguous, and tie the wire
   tags and the `ccsim list` rendering back to resolution. *)

module X = Snapcc_experiments.Algos
module Systems = Snapcc_mc.Systems
module Codec = Snapcc_net.Codec
module Layer = Snapcc_token.Layer
module Cc1 = Snapcc_core.Cc1
module Cc23 = Snapcc_core.Cc23

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let sys_name (module S : Snapcc_mc.System.S) = S.name

let resolve name =
  match Systems.resolve name with
  | Some r -> r
  | None -> Alcotest.failf "%S does not resolve" name

(* The typed instantiations each command ran before the catalog: the
   run/mp/smc/lint names through [Algos], check's (key, token) pairs —
   now the names [key-vring|tree|no-token] — through the token functors
   directly. *)
let tokens : (string * (module Layer.S)) list =
  [ ("vring", (module Snapcc_token.Token_vring));
    ("tree", (module Snapcc_token.Token_tree));
    ("null", (module Snapcc_token.Token_null)) ]

let checked_name key (module T : Layer.S) =
  match key with
  | "cc1" -> let module M = Cc1.Std (T) in M.name
  | "cc2" -> let module M = Cc23.Cc2_std (T) in M.name
  | "cc3" -> let module M = Cc23.Cc3_std (T) in M.name
  | "cc1-inverted" -> let module M = Cc1.Inverted_std (T) in M.name
  | "cc1-noready" -> let module M = Cc1.Unchecked_ready_std (T) in M.name
  | k -> Alcotest.failf "no pinned check system %S" k

(* (name, algorithm name, wire tag) per command. *)
let run_names =
  [ ("cc1", X.Cc1.name, Some 1);
    ("cc2", X.Cc2.name, Some 2);
    ("cc3", X.Cc3.name, Some 3);
    ("token-only", X.Token_only.name, None);
    ("dining", X.Dining.name, None);
    ("central", X.Central.name, None);
    ("cc1-no-token", X.Cc1_no_token.name, None) ]

let wired_names =
  [ ("cc1", X.Cc1.name, Some 1);
    ("cc2", X.Cc2.name, Some 2);
    ("cc3", X.Cc3.name, Some 3) ]

let smc_names =
  [ ("cc1", X.Cc1.name, Some 1);
    ("cc2", X.Cc2.name, Some 2);
    ("cc3", X.Cc3.name, Some 3);
    ("cc1-vring", X.Cc1_vring.name, None);
    ("cc2-vring", X.Cc2_vring.name, None);
    ("cc3-vring", X.Cc3_vring.name, None) ]

let lint_names =
  [ ("cc1", X.Cc1.name, Some 1);
    ("cc2", X.Cc2.name, Some 2);
    ("cc3", X.Cc3.name, Some 3);
    ("dining", X.Dining.name, None);
    ("central", X.Central.name, None) ]

let check_keys = [ "cc1"; "cc2"; "cc3"; "cc1-inverted"; "cc1-noready" ]

let test_pinned_resolution () =
  let pin what accepts table =
    List.iter
      (fun (name, algo, tag) ->
        let r = resolve name in
        check (Printf.sprintf "%s takes %s" what name) true (accepts r);
        check_str (Printf.sprintf "%s %s: algorithm" what name) algo
          (sys_name r.Systems.sys);
        check (Printf.sprintf "%s %s: wire tag" what name) true
          (r.Systems.tag = tag && Codec.algo_tag name = tag))
      table
  in
  pin "run" Systems.any run_names;
  pin "mp/net" Systems.wired wired_names;
  pin "smc" Systems.any smc_names;
  pin "lint" Systems.lintable lint_names;
  List.iter
    (fun key ->
      let r = resolve key in
      check ("check takes " ^ key) true (Systems.checkable r);
      (* a bare key is its catalog token *)
      check_str ("check " ^ key)
        (checked_name key (List.assoc "tree" tokens))
        (sys_name r.Systems.sys);
      List.iter
        (fun (token, tok) ->
          let name = Systems.name_over key token in
          let r = resolve name in
          check ("check takes " ^ name) true (Systems.checkable r);
          check_str ("check " ^ name) (checked_name key tok)
            (sys_name r.Systems.sys))
        tokens)
    check_keys;
  Alcotest.(check (list string)) "check all" check_keys
    (Systems.keys Systems.checkable);
  Alcotest.(check (list string)) "lint all"
    (List.map (fun (n, _, _) -> n) lint_names)
    (Systems.keys Systems.lintable);
  List.iter
    (fun (name, algo) ->
      let r = resolve name in
      check ("lint takes " ^ name) true (Systems.lintable r);
      check_str ("lint " ^ name) algo (sys_name r.Systems.sys))
    [ ("cc1-vring", X.Cc1_vring.name); ("cc2-vring", X.Cc2_vring.name);
      ("cc3-vring", X.Cc3_vring.name) ];
  (* what mp and net rejected before, they still reject *)
  List.iter
    (fun name -> check ("mp/net reject " ^ name) false (Systems.wired (resolve name)))
    [ "token-only"; "dining"; "central"; "cc1-no-token"; "cc1-vring" ]

let distinct what names =
  let sorted = List.sort compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | None -> ()
  | Some n -> Alcotest.failf "%s: two algorithms are both called %S" what n

(* An algorithm's [name] is what run_start, Driver.result and the lint
   reports carry: two different algorithms must never share one. *)
let test_distinct_names () =
  let catalog =
    List.concat_map
      (fun (e : Systems.entry) ->
        match e.Systems.token with
        | None -> [ sys_name (e.Systems.make "") ]
        | Some _ ->
          List.map (fun t -> sys_name (e.Systems.make t)) Systems.token_keys)
      Systems.all
  in
  distinct "catalog" catalog;
  let in_catalog =
    [ X.Cc1.name; X.Cc2.name; X.Cc3.name; X.Cc1_vring.name; X.Cc2_vring.name;
      X.Cc3_vring.name; X.Cc1_no_token.name; X.Token_only.name; X.Dining.name;
      X.Central.name ]
  in
  let algos_only = [ X.Cc1_widest.name; X.Cc2_eager.name ] in
  distinct "Algos" (in_catalog @ algos_only);
  List.iter
    (fun n -> check (n ^ " is a catalog system") true (List.mem n catalog))
    in_catalog;
  List.iter
    (fun n -> check (n ^ " borrows no catalog name") false (List.mem n catalog))
    algos_only

(* Every name maps to exactly one (entry, token), and resolves as itself. *)
let test_names_unambiguous () =
  let all = Systems.names Systems.any in
  distinct "names" all;
  List.iter
    (fun n -> check_str ("resolves as " ^ n) n (resolve n).Systems.name)
    all

(* The node instantiates what the frame's tag names: tag -> entry -> tag. *)
let test_tag_roundtrip () =
  let tagged =
    List.filter_map (fun (e : Systems.entry) -> e.Systems.tag) Systems.all
  in
  Alcotest.(check (list int)) "wire tags" [ 1; 2; 3 ] tagged;
  List.iter
    (fun tag ->
      match Systems.of_tag tag with
      | None -> Alcotest.failf "tag %d serves nothing" tag
      | Some r ->
        check "served over the default token" true
          (r.Systems.token = r.Systems.entry.Systems.token);
        check (Printf.sprintf "tag %d round-trips" tag) true
          (r.Systems.tag = Some tag
          && Codec.algo_tag r.Systems.entry.Systems.key = Some tag))
    tagged;
  check "tag 0 is the handshake, not an algorithm" true (Systems.of_tag 0 = None)

(* Every name `ccsim list` prints under its names section is one `ccsim
   run` accepts. *)
let test_list_names_run () =
  let text = Format.asprintf "%a" Systems.pp_catalog () in
  let rec after_header = function
    | [] -> Alcotest.fail "no names section in the listing"
    | l :: rest ->
      if String.length l >= 5 && String.sub l 0 5 = "names" then rest
      else after_header rest
  in
  let words =
    after_header (String.split_on_char '\n' text)
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w ->
           w <> ""
           && (let last = w.[String.length w - 1] in
               last <> ':' && last <> ','))
  in
  check "the listing names algorithms" true (List.length words > 20);
  List.iter
    (fun w ->
      match Systems.lookup ~what:"run" Systems.any w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ccsim list prints %S: %s" w e)
    words

let suite =
  [ ( "catalog",
      [ Alcotest.test_case "pinned name resolution" `Quick
          test_pinned_resolution;
        Alcotest.test_case "algorithm names are distinct" `Quick
          test_distinct_names;
        Alcotest.test_case "names are unambiguous" `Quick test_names_unambiguous;
        Alcotest.test_case "wire tag round-trip" `Quick test_tag_roundtrip;
        Alcotest.test_case "ccsim list names run" `Quick test_list_names_run ]
    ) ]

(* Correctness gates: every workload's output is checked before any of its
   numbers is printed, and a failed gate makes the harness exit non-zero.
   Rep records are the JSON objects the rep processes print (see
   workloads.ml); the gates below read them by field name. *)

module Json = Snapcc_telemetry.Json

type t = { name : string; ok : bool; detail : string }

let make name ok detail = { name; ok; detail }

let to_json g =
  Json.Obj
    [ ("name", Json.String g.name); ("ok", Json.Bool g.ok);
      ("detail", Json.String g.detail) ]

let of_json j =
  match
    ( Option.bind (Json.member "name" j) Json.to_str,
      Option.bind (Json.member "ok" j) Json.to_bool,
      Option.bind (Json.member "detail" j) Json.to_str )
  with
  | Some name, Some ok, Some detail -> { name; ok; detail }
  | _ -> make "gate-record" false ("malformed gate " ^ Json.to_string j)

let passed gates = List.for_all (fun g -> g.ok) gates

(* The harness's exit status.  1: a gate failed; 2: the gates passed but
   the emitted names differ from BENCHMARK.json ([mismatches], as
   {!Declared.diff} lists them), and nothing is printed; 0 otherwise. *)
let exit_code ~mismatches gates =
  if not (passed gates) then 1 else if mismatches <> [] then 2 else 0

let field name rep = Json.member name rep

let int_field name rep = Option.bind (field name rep) Json.to_int

let expect_int ~what ~expected name rep =
  match int_field name rep with
  | Some v when v = expected -> make what true (Printf.sprintf "%s = %d" name v)
  | Some v -> make what false (Printf.sprintf "%s = %d, expected %d" name v expected)
  | None -> make what false (Printf.sprintf "%s missing" name)

(* One gate per rep: [check] on each record. *)
let per_rep what check reps =
  List.mapi
    (fun i rep ->
      let g = check rep in
      { g with name = Printf.sprintf "%s[rep %d]" what i })
    reps

(* The field reads the same in every record (a seeded run is a pure
   function of its seed, so any drift is a behaviour change, not noise). *)
let same_across name reps =
  let vals = List.map (fun r -> Option.map Json.to_string (field name r)) reps in
  match vals with
  | [] -> make (name ^ " reproduced") false "no records"
  | v :: rest ->
    let ok = v <> None && List.for_all (( = ) v) rest in
    make (name ^ " reproduced") ok
      (String.concat " | "
         (List.map (function Some s -> s | None -> "missing") vals))

(* The exhaustive verdict of cc1 ∘ vring on the conflict triangle (all
   884,736 initial configurations), as `ccsim check` prints it. *)
let check_configs = 884_736
let check_transitions = 20_532_592

let check_rep rep =
  let gates =
    [ make "complete"
        (Option.bind (field "complete" rep) Json.to_bool = Some true)
        "exploration exhausted the domain product";
      expect_int ~what:"configs" ~expected:check_configs "configs" rep;
      expect_int ~what:"transitions" ~expected:check_transitions "transitions" rep;
      expect_int ~what:"violations" ~expected:0 "violations" rep;
      expect_int ~what:"deadlocks" ~expected:0 "deadlocks" rep;
      expect_int ~what:"livelocks" ~expected:0 "livelocks" rep ]
  in
  match List.find_opt (fun g -> not g.ok) gates with
  | Some g -> g
  | None -> make "check verdict" true "PASS, counts as expected"

let no_violation rep = expect_int ~what:"violations" ~expected:0 "violations" rep

(* Checks every rep must pass on its own.  A Spec violation fails the run
   only in shared memory (run-ring24), where it would be a bug; in smc it
   is a measured outcome and in mp/net the message-passing emulation's
   known stale-view mode, so there it counts as failed ops instead. *)
let rep_gates ~workload reps =
  match workload with
  | "run-ring24" -> per_rep "no Spec violation" no_violation reps
  | "check-triangle3" -> per_rep "check verdict" check_rep reps
  | "net-ring5" -> per_rep "no resync" (expect_int ~what:"resyncs" ~expected:0 "resyncs") reps
  | "mp-ring9" | "smc-triangle3" -> []
  | w -> [ make "workload" false ("unknown workload " ^ w) ]

(* What two runs of the same seed must reproduce: a repeated rep, or a
   traced run against its untraced reference. *)
let identity_fields = function
  | "run-ring24" -> [ "ledger" ]
  | "mp-ring9" -> [ "digest" ]
  | "check-triangle3" -> [ "configs"; "transitions" ]
  | "smc-triangle3" -> [ "deadlock_hits"; "digest" ]
  | "net-ring5" -> [ "sent"; "delivered"; "dropped"; "final_obs"; "violations" ]
  | _ -> []

let repeat_gates ~workload a b =
  List.map (fun f -> same_across f [ a; b ]) (identity_fields workload)

(* Failed operations of one rep: Spec violations, or every state of a
   check rep whose verdict is not the expected PASS. *)
let failed_ops ~workload rep =
  let ops = Option.value (int_field "ops" rep) ~default:0 in
  match workload with
  | "check-triangle3" -> if (check_rep rep).ok then 0 else max 1 ops
  | _ -> Option.value (int_field "violations" rep) ~default:(max 1 ops)

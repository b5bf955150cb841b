module Table = Snapcc_experiments.Table

type rule = Locality | Write_ownership | Determinism | Crash

let rule_name = function
  | Locality -> "locality"
  | Write_ownership -> "write-ownership"
  | Determinism -> "determinism"
  | Crash -> "crash"

type finding = {
  rule : rule;
  action : string;
  proc : int;
  count : int;
  detail : string;
}

type overlap = { labels : string list; times : int; example_proc : int }
type interference = { writer : string; reader : string; times : int }

type t = {
  algo : string;
  topo : string;
  tier : string;
  configs : int;
  evals : int;
  findings : finding list;
  waived : finding list;
  overlaps : overlap list;
  interference : interference list;
  dead : string list;
  dead_proven : string list;
  dead_unreached : string list;
}

let ok t = t.findings = []

(* findings by (rule, action, proc): the summed count and the first detail *)
type tally = (rule * string * int, int * string) Hashtbl.t

let tally () : tally = Hashtbl.create 16

let note (tl : tally) (f : finding) =
  let key = (f.rule, f.action, f.proc) in
  match Hashtbl.find_opt tl key with
  | Some (c, d) -> Hashtbl.replace tl key (c + f.count, d)
  | None -> Hashtbl.add tl key (f.count, f.detail)

let build ~algo ~topo ~tier ~configs ~evals ~allow ~proven ~labels ~guard_true
    ~overlaps ~interference (tl : tally) =
  let waived, findings =
    Hashtbl.fold
      (fun (rule, action, proc) (count, detail) acc ->
        { rule; action; proc; count; detail } :: acc)
      tl []
    |> List.sort compare
    |> List.partition (fun f -> List.mem f.rule allow)
  in
  let never =
    List.filteri (fun i _ -> guard_true.(i) = 0) (Array.to_list labels)
  in
  { algo;
    topo;
    tier;
    configs;
    evals;
    findings;
    waived;
    overlaps =
      List.map
        (fun (labels, times, example_proc) -> { labels; times; example_proc })
        overlaps
      |> List.sort (fun (a : overlap) (b : overlap) ->
             compare (b.times, a.labels) (a.times, b.labels));
    interference =
      List.map (fun (writer, reader, times) -> { writer; reader; times })
        interference
      |> List.sort (fun (a : interference) (b : interference) ->
             compare (b.times, a.writer, a.reader)
               (a.times, b.writer, b.reader));
    dead = (if proven then [] else never);
    dead_proven = (if proven then never else []);
    dead_unreached = [] }

let classify_dead ~proven ~live t =
  let dead_proven, rest =
    List.partition (fun a -> List.mem a proven) t.dead
  in
  let dead_unreached, dead =
    List.partition (fun a -> List.mem a live) rest
  in
  { t with
    dead;
    dead_proven = t.dead_proven @ dead_proven;
    dead_unreached = t.dead_unreached @ dead_unreached }

let summary_table reports =
  {
    Table.id = "lint";
    title = "static footprint/race/priority analysis";
    header =
      [ "algorithm"; "topology"; "tier"; "configs"; "evals"; "violations";
        "waived"; "overlaps"; "interference"; "dead"; "verdict" ];
    rows =
      List.map
        (fun t ->
          [ t.algo; t.topo; t.tier; Table.i t.configs; Table.i t.evals;
            Table.i (List.length t.findings); Table.i (List.length t.waived);
            Table.i (List.fold_left (fun a (o : overlap) -> a + o.times) 0 t.overlaps);
            Table.i
              (List.fold_left (fun a (x : interference) -> a + x.times) 0 t.interference);
            Table.i
              (List.length t.dead + List.length t.dead_proven
              + List.length t.dead_unreached);
            (if ok t then "ok" else "FAIL") ])
        reports;
    notes =
      [ "overlaps/interference count occurrences, not rule violations";
        "waived = findings matching the analyzer's allow list (documented \
         deviations)";
        "dead: sampled tier = guard never held on an explored configuration \
         (suspect, coverage-relative); exact tier = guard false on the \
         entire enumerated domain product (proof)" ];
  }

let detail_table t =
  let row tag f =
    [ tag; rule_name f.rule; f.action; Table.i f.proc; Table.i f.count; f.detail ]
  in
  {
    Table.id = "lint-detail";
    title = Printf.sprintf "%s on %s: findings" t.algo t.topo;
    header = [ "kind"; "rule"; "action"; "proc"; "count"; "detail" ];
    rows =
      List.map (row "violation") t.findings @ List.map (row "waived") t.waived;
    notes = [];
  }

let to_lines t =
  let dead_line tag a =
    Printf.sprintf "lint algo=%s topo=%s tier=%s %s action=%s" t.algo t.topo
      t.tier tag a
  in
  List.map
    (fun f ->
      Printf.sprintf
        "lint algo=%s topo=%s tier=%s rule=%s action=%s proc=%d count=%d detail=%s"
        t.algo t.topo t.tier (rule_name f.rule) f.action f.proc f.count f.detail)
    t.findings
  @ List.map (dead_line "suspect=dead-action") t.dead
  @ List.map (dead_line "proven=dead-action") t.dead_proven
  @ List.map (dead_line "suspect=unreached-in-sample") t.dead_unreached

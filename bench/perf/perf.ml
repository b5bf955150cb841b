(* The end-to-end benchmark.

     perf.exe --workload W --seed S --seconds T --trace 0|1
     perf.exe --seed S                     (every workload, untraced)

   A closed loop with one client: the parent re-executes itself once per
   rep ([--child rep]), one child at a time, each rep a fixed horizon,
   until T seconds have passed (at least three reps).  Heap peaks and GC
   state are therefore per rep, and with the parent blocked on the
   child's output at most two processes are runnable.  After its record,
   each rep times a few calls of the workload at a minimal horizon: the
   set-up samples, spread over the run like the reps.  Every output is checked
   (gates.ml) before anything is printed; the names printed must be the
   ones BENCHMARK.json declares (exit 2 otherwise); a failed gate exits 1.

   The last line of standard output is
     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
   holding the end-to-end metrics (medians over the reps) or, with
   --trace 1, the per-layer metrics of the traced runs (see README.md). *)

module Json = Snapcc_telemetry.Json
module W = Workloads

let min_reps = 3
let max_reps = 100

(* ---------- child processes ---------- *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run [perf.exe --child ...] to completion; its last stdout line is one
   JSON record. *)
let child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "--child" :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let status = waitpid pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, Ok j -> Ok j
  | Unix.WEXITED 0, Error e -> Error ("unparsable child output: " ^ e)
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
    Error
      (Printf.sprintf "child %s exited with status %d: %s"
         (String.concat " " args) c last)

let child_main ~task ~workload ~seed =
  let out =
    match task with
    | "rep" -> W.rep ~seed workload
    | "gate" -> (
      match W.gate ~seed workload with
      | Some j -> j
      | None -> Json.Obj [ ("gates", Json.List []) ])
    | "ref" | "trace" -> (
      match List.find_opt (fun (g, _, _) -> g = workload) W.trace_groups with
      | Some (_, Some r, _) when task = "ref" -> r ~seed
      | Some (_, _, t) when task = "trace" -> t ~seed
      | _ -> invalid_arg ("no " ^ task ^ " run for " ^ workload))
    | t -> invalid_arg ("unknown child task " ^ t)
  in
  print_endline (Json.to_string out)

(* ---------- aggregation ---------- *)

let num j = match Json.to_float j with Some f -> f | None -> nan
let fnum name j = Option.fold ~none:nan ~some:num (Json.member name j)
let inum name j = Option.value (Option.bind (Json.member name j) Json.to_int) ~default:0
let list name j = Option.value (Option.bind (Json.member name j) Json.to_list) ~default:[]

type outcome = {
  report : Json.t;  (** the detail record printed before the result line *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  gates : Gates.t list;
  attempted : int;
  failed : int;
}

let error_gate what e = Gates.make what false e

let metrics_json ms =
  Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])) ms)

(* The median with its quartiles and every sample. *)
let summary (name, unit, xs) =
  let med = Stats.median xs in
  let q1, q3 = if Array.length xs >= 2 then Stats.quartiles xs else (med, med) in
  ( name,
    Json.Obj
      [ ("value", Json.Float med); ("unit", Json.String unit); ("q1", Json.Float q1);
        ("q3", Json.Float q3);
        ("samples", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) xs))) ] )

(* One untraced set of a workload: reps for [seconds], gate runs.  Rep i
   runs seed [seed * 1000 + i], so the medians pool many seeds' inputs
   (heap peaks, for one, move by several per cent from seed to seed); a
   last rep repeats rep 0's seed and must reproduce it.  Every rep ends
   with its own set-up samples, so they are spread over the run too. *)
let measure ~workload ~seed ~seconds =
  let args task s = [ task; "--workload"; workload; "--seed"; string_of_int s ] in
  let rep i =
    let s = (seed * 1000) + i in
    match child (args "rep" s) with
    | Ok (Json.Obj fields) -> Ok (Json.Obj (("seed", Json.Int s) :: fields))
    | r -> r
  in
  let t0 = Unix.gettimeofday () in
  let reps = ref [] and errors = ref [] and i = ref 0 in
  while !i < min_reps || (Unix.gettimeofday () -. t0 < seconds && !i < max_reps) do
    (match rep !i with Ok j -> reps := j :: !reps | Error e -> errors := e :: !errors);
    incr i
  done;
  let reps = List.rev !reps in
  let repeat =
    match reps with
    | first :: _ when W.seeded workload -> (
      match rep 0 with
      | Ok again -> Gates.repeat_gates ~workload first again
      | Error e -> [ error_gate "repeated rep" e ])
    | _ -> []
  in
  let gates =
    Gates.rep_gates ~workload reps @ repeat
    @ List.map (error_gate "rep") !errors
    @
    match child (args "gate" seed) with
    | Ok j -> List.map Gates.of_json (list "gates" j)
    | Error e -> [ error_gate "gate run" e ]
  in
  let arr f = Array.of_list (List.map f reps) in
  let setup_samples =
    Array.of_list (List.concat_map (fun r -> List.map num (list "setup_s" r)) reps)
  in
  let series =
    if reps = [] || setup_samples = [||] then []
    else
      [ ("ops_per_s", "op/s", arr (fun r -> float_of_int (inum "ops" r) /. fnum "wall_s" r));
        ("setup_s", "s", setup_samples);
        ("peak_heap_mb", "MB", arr (fnum "heap_mb")) ]
  in
  { report =
      Json.Obj
        [ ("workload", Json.String workload); ("seed", Json.Int seed);
          ("reps", Json.List reps); ("metrics", Json.Obj (List.map summary series));
          ("gates", Json.List (List.map Gates.to_json gates)) ];
    metrics = List.map (fun (n, u, xs) -> (n, u, Stats.median xs)) series;
    gates;
    attempted = List.fold_left (fun a r -> a + inum "ops" r) 0 reps + List.length !errors;
    failed =
      List.fold_left (fun a r -> a + Gates.failed_ops ~workload r) 0 reps
      + List.length !errors }

(* The traced run: every layer group's untraced reference and traced run,
   each in its own child.  The traced runs replay the untraced ones, so
   what the untraced run produced must come out again. *)
let traced ~seed =
  let args task g = [ task; "--workload"; g; "--seed"; string_of_int seed ] in
  let metrics = ref [] and gates = ref [] and attempted = ref 0 and failed = ref 0 in
  let add l = gates := !gates @ l in
  List.iter
    (fun (g, reference, _) ->
      let r = Option.map (fun _ -> child (args "ref" g)) reference in
      match child (args "trace" g) with
      | Error e -> add [ error_gate (g ^ " traced run") e ]
      | Ok t -> (
        List.iter
          (fun m ->
            match Option.bind (Json.member "name" m) Json.to_str, Option.bind (Json.member "unit" m) Json.to_str with
            | Some n, Some u -> metrics := (n, u, fnum "value" m) :: !metrics
            | _ -> add [ error_gate (g ^ " metric") (Json.to_string m) ])
          (list "metrics" t);
        attempted := !attempted + inum "ops" t;
        failed := !failed + inum "violations" t;
        add (List.map Gates.of_json (list "gates" t));
        match r with
        | Some (Error e) -> add [ error_gate (g ^ " reference run") e ]
        | Some (Ok r) ->
          metrics := ("trace.overhead." ^ g, "ratio", fnum "wall_s" t /. fnum "wall_s" r) :: !metrics;
          add
            (List.map
               (fun (x : Gates.t) -> { x with name = "traced = untraced: " ^ x.name })
               (Gates.rep_gates ~workload:g [ r; t ] @ Gates.repeat_gates ~workload:g r t))
        | None -> ()))
    W.trace_groups;
  let metrics = List.rev !metrics in
  (* the traced loops must account for the step: layer self times within
     10% of the traced per-step wall time *)
  List.iter
    (fun (n, _, v) ->
      if String.starts_with ~prefix:"trace.coverage." n then
        add [ Gates.make (n ^ " within 10%") (Float.abs (v -. 1.) <= 0.10) (Printf.sprintf "%.4f" v) ])
    metrics;
  { report =
      Json.Obj
        [ ("trace", Json.Bool true); ("seed", Json.Int seed); ("metrics", metrics_json metrics);
          ("gates", Json.List (List.map Gates.to_json !gates)) ];
    metrics; gates = !gates; attempted = !attempted; failed = !failed }

(* ---------- output ---------- *)

let result_line o =
  Json.Obj
    [ ("correct", Json.Bool (Gates.passed o.gates)); ("attempted", Json.Int (max 1 o.attempted));
      ("failed", Json.Int o.failed); ("metrics", metrics_json o.metrics) ]

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit code) fmt

let report_failures o =
  List.iter
    (fun (g : Gates.t) ->
      if not g.ok then prerr_endline ("perf: gate failed: " ^ g.name ^ ": " ^ g.detail))
    o.gates

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 12. and trace = ref 0
  and task = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run (default: all, untraced)");
      ("--seed", Arg.Set_int seed, "N seed of every seeded input (default 1)");
      ("--seconds", Arg.Set_float seconds, "T measure reps for T seconds (default 12)");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced per-layer run instead");
      ("--child", Arg.Set_string task, "TASK internal: run one task and print its record") ]
    (fun a -> die 2 "unexpected argument %s" a)
    "perf.exe [--workload NAME] [--seed N] [--seconds T] [--trace 0|1]";
  if !task <> "" then child_main ~task:!task ~workload:!workload ~seed:!seed
  else begin
    let declared =
      match Declared.load "BENCHMARK.json" with
      | Ok d -> d
      | Error e -> die 2 "cannot read BENCHMARK.json: %s" e
    in
    if List.sort compare declared.workloads <> List.sort compare W.names then
      die 2 "BENCHMARK.json declares workloads [%s], the harness runs [%s]"
        (String.concat ", " declared.workloads) (String.concat ", " W.names);
    if !workload <> "" && not (List.mem !workload W.names) then die 2 "unknown workload %s" !workload;
    if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1";
    let outs =
      if !trace = 1 then [ traced ~seed:!seed ]
      else
        List.map
          (fun w -> measure ~workload:w ~seed:!seed ~seconds:!seconds)
          (if !workload = "" then W.names else [ !workload ])
    in
    List.iter report_failures outs;
    let gates = List.concat_map (fun o -> o.gates) outs in
    let declared_metrics = if !trace = 1 then declared.per_layer else declared.end_to_end in
    let mismatches =
      List.concat_map
        (fun o ->
          Declared.diff ~declared:declared_metrics
            ~emitted:(List.map (fun (n, u, _) -> (n, u)) o.metrics))
        outs
    in
    let code = Gates.exit_code ~mismatches gates in
    if code = 2 then begin
      List.iter (fun s -> prerr_endline ("perf: BENCHMARK.json mismatch: " ^ s)) mismatches;
      exit code
    end;
    (match outs with
     | [ o ] ->
       print_endline (Json.to_string o.report);
       print_endline (Json.to_string (result_line o))
     | _ ->
       (* every workload: one object, the detail records keyed by workload *)
       print_endline
         (Json.to_string
            (Json.Obj
               [ ("correct", Json.Bool (Gates.passed gates));
                 ("attempted", Json.Int (List.fold_left (fun a o -> a + o.attempted) 0 outs));
                 ("failed", Json.Int (List.fold_left (fun a o -> a + o.failed) 0 outs));
                 ("workloads", Json.Obj (List.map2 (fun w o -> (w, o.report)) W.names outs)) ])));
    exit code
  end

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Engine = Snapcc_runtime.Engine
module Daemon = Snapcc_runtime.Daemon
module Spec = Snapcc_analysis.Spec
module Observer = Snapcc_analysis.Observer

type step = { mode : int; selected : int list }
type kind = Safety of string | Deadlock | Livelock

type t = {
  algo : string;
  token : string;
  topo : string;
  kind : kind;
  detail : string;
  init : int list;
  steps : step list;
  loop : step list;
}

let mk_steps = List.map (fun (m, sel) -> { mode = m; selected = sel })

let of_safety ~algo ~token ~topo ~rule ~detail ~init ~steps =
  { algo; token; topo; kind = Safety rule; detail;
    init = Array.to_list init; steps = mk_steps steps; loop = [] }

let of_deadlock ~algo ~token ~topo ~detail ~init ~steps =
  { algo; token; topo; kind = Deadlock; detail;
    init = Array.to_list init; steps = mk_steps steps; loop = [] }

let of_livelock ~algo ~token ~topo ~detail ~init ~steps ~loop =
  { algo; token; topo; kind = Livelock; detail;
    init = Array.to_list init; steps = mk_steps steps;
    loop = List.map (fun sel -> { mode = Explore.inout_mode; selected = sel }) loop }

let kind_name = function
  | Safety r -> "safety:" ^ r
  | Deadlock -> "deadlock"
  | Livelock -> "livelock"

let pp_step ppf (s : step) =
  Format.fprintf ppf "mode=%s select={%s}" (Explore.mode_name s.mode)
    (String.concat "," (List.map string_of_int s.selected))

let pp ppf c =
  Format.fprintf ppf
    "@[<v>counterexample [%s] %s (token %s) on %s@,detail: %s@,init (domain \
     indices): [%s]@,"
    (kind_name c.kind) c.algo c.token c.topo c.detail
    (String.concat " " (List.map string_of_int c.init));
  List.iteri (fun i s -> Format.fprintf ppf "step %d: %a@," i pp_step s) c.steps;
  List.iteri (fun i s -> Format.fprintf ppf "loop %d: %a@," i pp_step s) c.loop;
  Format.fprintf ppf "@]"

let sanitize = String.map (fun ch -> if ch = '\n' || ch = '\r' then ' ' else ch)

let to_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let pr fmt = Printf.fprintf oc fmt in
      pr "ccsim-cex v1\n";
      pr "algo %s\n" c.algo;
      pr "token %s\n" c.token;
      pr "topo %s\n" c.topo;
      (match c.kind with
      | Safety r -> pr "kind safety %s\n" r
      | Deadlock -> pr "kind deadlock\n"
      | Livelock -> pr "kind livelock\n");
      pr "detail %s\n" (sanitize c.detail);
      pr "init%s\n"
        (String.concat "" (List.map (fun i -> " " ^ string_of_int i) c.init));
      let pr_step tag (s : step) =
        pr "%s %d%s\n" tag s.mode
          (String.concat ""
             (List.map (fun p -> " " ^ string_of_int p) s.selected))
      in
      List.iter (pr_step "step") c.steps;
      List.iter (pr_step "loop") c.loop)

let of_file path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let int s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith ("counterexample parse: not an integer: " ^ s)
  in
  let parse_step rest =
    match rest with
    | mode :: sel -> { mode = int mode; selected = List.map int sel }
    | [] -> failwith "counterexample parse: empty step"
  in
  match lines with
  | [] -> failwith "counterexample parse: empty file"
  | header :: rest ->
    if String.trim header <> "ccsim-cex v1" then
      failwith "counterexample parse: not a ccsim-cex v1 file";
    let c =
      ref
        { algo = ""; token = ""; topo = ""; kind = Deadlock; detail = "";
          init = []; steps = []; loop = [] }
    in
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match String.split_on_char ' ' (String.trim line) with
          | "algo" :: a -> c := { !c with algo = String.concat " " a }
          | "token" :: a -> c := { !c with token = String.concat " " a }
          | "topo" :: a -> c := { !c with topo = String.concat " " a }
          | "kind" :: [ "deadlock" ] -> c := { !c with kind = Deadlock }
          | "kind" :: [ "livelock" ] -> c := { !c with kind = Livelock }
          | "kind" :: "safety" :: [ r ] -> c := { !c with kind = Safety r }
          | "detail" :: d -> c := { !c with detail = String.concat " " d }
          | "init" :: ids -> c := { !c with init = List.map int ids }
          | "step" :: rest -> c := { !c with steps = !c.steps @ [ parse_step rest ] }
          | "loop" :: rest -> c := { !c with loop = !c.loop @ [ parse_step rest ] }
          | tag :: _ -> failwith ("counterexample parse: unknown line " ^ tag)
          | [] -> ())
      rest;
    !c

let rec drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

module Make (Sys : System.S) = struct
  module Eng = Engine.Make (Sys)
  module Enc = Encode.Make (Sys)

  type verdict =
    | Reproduced of string
    | Not_reproduced of string
    | Invalid of string

  let conflicting_meetings h obs =
    let ms = Obs.meetings h obs in
    List.exists
      (fun e1 -> List.exists (fun e2 -> e1 < e2 && H.conflicting h e1 e2) ms)
      ms

  let engine_of h (c : t) =
    let enc = Enc.create h in
    let n = H.n h in
    if List.length c.init <> n then
      failwith
        (Printf.sprintf "counterexample has %d initial states for %d processes"
           (List.length c.init) n);
    let sts =
      Array.of_list
        (List.mapi
           (fun p id ->
             if id < 0 || id >= Enc.count enc p then
               failwith
                 (Printf.sprintf
                    "initial domain index %d out of range for process %d" id p);
             Enc.state enc p id)
           c.init)
    in
    let script =
      Array.of_list (List.map (fun s -> s.selected) (c.steps @ c.loop))
    in
    let daemon =
      Daemon.of_fun ~name:"counterexample" (fun ~step ~enabled:_ ->
          if step < Array.length script then script.(step) else [])
    in
    (Eng.create ~init:(`States sts) ~daemon h, enc)

  let replay ?trace h (c : t) =
    try
      let eng, _enc = engine_of h c in
      let observer = Observer.create h ~initial:(Eng.obs eng) in
      let do_step i (st : step) =
        if st.mode < 0 || st.mode >= Array.length Explore.mode_inputs then
          failwith "bad input mode in counterexample";
        let inputs = Explore.mode_inputs.(st.mode) in
        let rep = Eng.step eng ~inputs in
        if rep.Model.terminal then
          failwith "counterexample selects in a terminal configuration";
        Option.iter
          (fun ppf ->
            Format.fprintf ppf "  step %-3d mode=%-6s selected={%s} executed=[%s]@."
              i
              (Explore.mode_name st.mode)
              (String.concat "," (List.map string_of_int rep.Model.selected))
              (String.concat "; "
                 (List.map
                    (fun (p, l) -> Printf.sprintf "%d:%s" p l)
                    rep.Model.executed)))
          trace;
        Observer.step observer ~step:i ~round:rep.Model.round
          ~request_out:inputs.Model.request_out (Eng.obs eng)
      in
      List.iteri do_step c.steps;
      let spec = Observer.spec observer in
      let verdict =
        match c.kind with
        | Safety rule -> (
          match
            List.filter
              (fun (v : Spec.violation) -> v.Spec.rule = rule)
              (Spec.violations spec)
          with
          | v :: _ -> Reproduced (Format.asprintf "%a" Spec.pp_violation v)
          | [] ->
            if rule = "exclusion" && conflicting_meetings h (Eng.obs eng) then
              Reproduced
                "conflicting committees meet in the final configuration"
            else
              Not_reproduced
                (match Spec.violations spec with
                | [] -> "no monitor violation on replay"
                | v :: _ -> "different rule on replay: " ^ v.Spec.rule))
        | Deadlock ->
          let inputs = Explore.mode_inputs.(Explore.inout_mode) in
          if not (Eng.is_terminal eng ~inputs) then
            Not_reproduced "final configuration is not terminal under in+out"
          else if Obs.committee_waiting h (Eng.obs eng) then
            Reproduced "terminal configuration with a fully waiting committee"
          else
            Not_reproduced "terminal, but no committee has all members waiting"
        | Livelock ->
          if c.loop = [] then Invalid "livelock counterexample without a loop"
          else begin
            let entry = Eng.states eng in
            let n0 = List.length (Spec.convened spec) in
            List.iteri
              (fun i st -> do_step (List.length c.steps + i) st)
              c.loop;
            let exit_ = Eng.states eng in
            let same =
              Array.for_all2 (fun a b -> Sys.equal_state a b) entry exit_
            in
            let convened = List.length (Spec.convened spec) - n0 in
            if same && convened = 0 then
              Reproduced
                (Printf.sprintf "fair convene-free cycle of %d steps"
                   (List.length c.loop))
            else if not same then
              Not_reproduced "loop does not return to its entry configuration"
            else Not_reproduced "a meeting convened inside the loop"
          end
      in
      Option.iter
        (fun ppf ->
          Format.fprintf ppf "  final configuration:@.  %a@." (Obs.pp_snapshot h)
            (Eng.obs eng))
        trace;
      verdict
    with Failure msg | Invalid_argument msg -> Invalid msg

  let reproduces h c =
    match replay h c with Reproduced _ -> true | _ -> false

  (* The configuration reached after [k] steps, as domain indices (None if
     the prefix is not executable or reaches an off-domain state). *)
  let state_after h (c : t) k =
    try
      let eng, enc = engine_of h c in
      let rec go i = function
        | [] -> ()
        | _ when i >= k -> ()
        | (st : step) :: tl ->
          let rep = Eng.step eng ~inputs:Explore.mode_inputs.(st.mode) in
          if rep.Model.terminal then failwith "terminal";
          go (i + 1) tl
      in
      go 0 c.steps;
      let sts = Eng.states eng in
      let ids = Array.to_list (Array.mapi (fun p s -> Enc.find enc p s) sts) in
      if List.exists Option.is_none ids then None
      else Some (List.map Option.get ids)
    with Failure _ | Invalid_argument _ -> None

  (* Shift the largest reproducing suffix to the front: every on-path state
     is a legal initial configuration under the §2.5 quantification. *)
  let shift_pass h (c : t) =
    let len = List.length c.steps in
    let rec try_k k =
      if k <= 0 then c
      else
        match state_after h c k with
        | None -> try_k (k - 1)
        | Some init ->
          let cand = { c with init; steps = drop k c.steps } in
          if reproduces h cand then cand else try_k (k - 1)
    in
    try_k len

  (* Remove processes from daemon selections one at a time. *)
  let shrink_pass h (c : t) =
    let cur = ref c in
    let i = ref 0 in
    while !i < List.length !cur.steps do
      let st = List.nth !cur.steps !i in
      let removed = ref false in
      List.iter
        (fun p ->
          if (not !removed) && List.length st.selected > 1 then begin
            let sel' = List.filter (( <> ) p) st.selected in
            let steps' =
              List.mapi
                (fun j (s : step) ->
                  if j = !i then { s with selected = sel' } else s)
                !cur.steps
            in
            let cand = { !cur with steps = steps' } in
            if reproduces h cand then begin
              cur := cand;
              removed := true
            end
          end)
        st.selected;
      if not !removed then incr i
    done;
    !cur

  let minimize h (c : t) =
    match c.kind with
    | Safety _ ->
      let rec fix c =
        let c' = shrink_pass h (shift_pass h c) in
        if c' = c then c else fix c'
      in
      fix c
    | Deadlock | Livelock -> c
end

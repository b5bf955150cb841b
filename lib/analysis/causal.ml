module H = Snapcc_hypergraph.Hypergraph
module HIO = Snapcc_hypergraph.Hypergraph_io
module Obs = Snapcc_runtime.Obs
module Event = Snapcc_telemetry.Event
module Vclock = Snapcc_telemetry.Vclock
module Json = Snapcc_telemetry.Json

type node = {
  p : int;
  k : int;
  step : int;
  iter : int;
  clock : Vclock.t;
  obs : Obs.t;
}

type span = {
  eid : int;
  convene_iter : int;
  convene_clock : Vclock.t;
  close_iter : int option;
  close_clock : Vclock.t option;
}

type t = {
  h : H.t;
  n : int;
  order : node array;  (* causal linearization, initial stamps excluded *)
  init_obs : Obs.t array;
  horizon : int;
  violations : Spec.violation list;
  convened : (int * int) list;
  fault_iters : int list;
  recover_iter : int option;
  stabilized_in : int option;
  spans : span list;
  dfc_schedule : int;
  mean_concurrency : float;
  dfc_causal : int;
  critical_path : node list;
}

let hypergraph t = t.h
let processes t = t.n
let events t = t.order
let horizon t = t.horizon
let violations t = t.violations
let convened t = t.convened
let fault_iters t = t.fault_iters
let recover_iter t = t.recover_iter
let stabilized_in t = t.stabilized_in
let dfc_schedule t = t.dfc_schedule
let mean_concurrency t = t.mean_concurrency
let dfc_causal t = t.dfc_causal
let critical_path t = t.critical_path

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) r f = Result.bind r f

(* ----- extraction and validation ---------------------------------------- *)

let find_topo events =
  let rec go = function
    | [] -> Error "trace has no run_start event"
    | Event.Run_start { topo; n; _ } :: _ ->
      if topo = "" then
        Error "run_start carries no topology (trace predates the causal layer)"
      else
        let* h = HIO.parse topo in
        if H.n h <> n then errorf "run_start topology has %d processes, not %d" (H.n h) n
        else Ok h
    | _ :: rest -> go rest
  in
  go events

let clock_events events =
  List.filter_map
    (function
      | Event.Clock { step; p; k; clock; obs_code; disc } ->
        Some
          { p; k; step;
            iter = (if k = Event.clock_corruption then step else step - 1);
            clock = Vclock.of_list clock;
            obs = Obs.of_code ~code:obs_code ~discussions:disc }
      | _ -> None)
    events

let run_end_steps events =
  List.fold_left
    (fun acc ev ->
      match ev with Event.Run_end { steps; _ } -> Some steps | _ -> acc)
    None events

(* Initial-configuration stamps: exactly one per process, the unit clock. *)
let split_init n stamps =
  let init = Array.make n None in
  let rest = ref [] in
  let err = ref None in
  List.iter
    (fun ev ->
      if !err = None then
        if ev.k = Event.clock_init then begin
          if ev.p < 0 || ev.p >= n then
            err := Some (Printf.sprintf "init stamp for unknown process %d" ev.p)
          else if init.(ev.p) <> None then
            err := Some (Printf.sprintf "duplicate init stamp for process %d" ev.p)
          else if
            Array.length ev.clock <> n
            || not
                 (Array.for_all Fun.id
                    (Array.init n (fun q ->
                         ev.clock.(q) = if q = ev.p then 1 else 0)))
          then err := Some (Printf.sprintf "non-unit init clock for process %d" ev.p)
          else init.(ev.p) <- Some ev
        end
        else rest := ev :: !rest)
    stamps;
  match !err with
  | Some e -> Error e
  | None ->
    let missing = ref [] in
    Array.iteri (fun p s -> if s = None then missing := p :: !missing) init;
    (match !missing with
     | p :: _ -> errorf "no init stamp for process %d" p
     | [] ->
       Ok
         ( Array.map
             (function Some ev -> ev.obs | None -> assert false)
             init,
           List.rev !rest ))

(* Per-process chains ordered by the own clock component (intrinsic to the
   stamps — trace order is never consulted), own components consecutive
   from 2. *)
let chains n stamps =
  let per = Array.make n [] in
  let err = ref None in
  List.iter
    (fun ev ->
      if !err = None then
        if ev.p < 0 || ev.p >= n then
          err := Some (Printf.sprintf "clock stamp for unknown process %d" ev.p)
        else if Array.length ev.clock <> n then
          err :=
            Some
              (Printf.sprintf "process %d: clock has %d components, not %d" ev.p
                 (Array.length ev.clock) n)
        else if ev.iter < 0 then
          err := Some (Printf.sprintf "process %d: negative iteration" ev.p)
        else per.(ev.p) <- ev :: per.(ev.p))
    stamps;
  match !err with
  | Some e -> Error e
  | None ->
    let per =
      Array.map
        (fun evs ->
          Array.of_list
            (List.sort (fun a b -> compare a.clock.(a.p) b.clock.(b.p)) evs))
        per
    in
    let bad = ref None in
    Array.iteri
      (fun p evs ->
        Array.iteri
          (fun i ev ->
            if !bad = None && ev.clock.(p) <> i + 2 then
              bad :=
                Some
                  (Printf.sprintf
                     "process %d: own components not consecutive (%d at rank %d)"
                     p ev.clock.(p) (i + 2)))
          evs)
      per;
    (match !bad with Some e -> Error e | None -> Ok per)

(* Kahn's algorithm over the clock frontier.  An event of [p] is ready
   once every component of its clock is within the frontier; the
   deterministic tie-break (iteration, corruption-first, process, own
   component) reproduces the runtime emission order, so the linearization
   is both a valid topological order of happens-before and the actual
   schedule. *)
let linearize n (per : node array array) =
  let total = Array.fold_left (fun a evs -> a + Array.length evs) 0 per in
  let next = Array.make n 0 in
  let frontier = Array.make n 1 (* init stamps consumed *) in
  let order = Array.make total None in
  let key ev =
    ((ev.iter, if ev.k = Event.clock_corruption then 0 else 1), ev.p, ev.clock.(ev.p))
  in
  let rec fill i =
    if i = total then Ok ()
    else begin
      let best = ref None in
      for p = 0 to n - 1 do
        if next.(p) < Array.length per.(p) then begin
          let ev = per.(p).(next.(p)) in
          let ready = ref true in
          for q = 0 to n - 1 do
            if q <> p && ev.clock.(q) > frontier.(q) then ready := false
          done;
          if !ready then
            match !best with
            | Some b when key b <= key ev -> ()
            | _ -> best := Some ev
        end
      done;
      match !best with
      | None ->
        errorf "causally inconsistent trace: no ready event after %d of %d" i total
      | Some ev ->
        order.(i) <- Some ev;
        next.(ev.p) <- next.(ev.p) + 1;
        frontier.(ev.p) <- ev.clock.(ev.p);
        fill (i + 1)
    end
  in
  let* () = fill 0 in
  Ok (Array.map (function Some ev -> ev | None -> assert false) order)

(* ----- cut-consistent replay -------------------------------------------- *)

type replay = {
  r_violations : Spec.violation list;
  r_convened : (int * int) list;
  r_faults : int list;
  r_recover : int option;
  r_recover_idx : int option;  (* index in the linearization *)
  r_spans : span list;
  r_dfc : int;
  r_mean : float;
}

let replay h init_obs (order : node array) ~horizon =
  let obs = Array.copy init_obs in
  let faults = ref [] in
  let recover_idx = ref None in
  let spans = ref [] in
  let dfc = ref (List.length (Obs.meetings h obs)) in
  let conc_sum = ref 0 in
  let cur_conc = ref (List.length (Obs.meetings h obs)) in
  let last_iter = ref 0 in
  (* the observer's convene/terminate events, tagged with the linearized
     event that caused them, become the meeting spans *)
  let cur = ref 0 in
  let on_event (s : Event.stamped) =
    let ev = order.(!cur) in
    match s.Event.ev with
    | Event.Convene { eid; _ } ->
      spans :=
        { eid; convene_iter = ev.iter; convene_clock = ev.clock;
          close_iter = None; close_clock = None }
        :: !spans
    | Event.Terminate { eid; _ } ->
      let closed = ref false in
      spans :=
        List.map
          (fun s ->
            if (not !closed) && s.eid = eid && s.close_iter = None then begin
              closed := true;
              { s with close_iter = Some ev.iter; close_clock = Some ev.clock }
            end
            else s)
          !spans
    | _ -> ()
  in
  let hub = Snapcc_telemetry.Hub.create () in
  Snapcc_telemetry.Hub.add_sink hub
    (Snapcc_telemetry.Sink.custom ~emit:on_event ~close:ignore);
  let observer = Observer.create ~telemetry:hub h ~initial:(Array.copy obs) in
  let total = Array.length order in
  let i = ref 0 in
  while !i < total do
    let iter = order.(!i).iter in
    (* each linearized prefix is a consistent cut; transitions are applied
       per scheduler iteration: the corruption batch first, then the (at
       most one) activation/delivery event of the step *)
    let j = ref !i in
    while !j < total && order.(!j).iter = iter do incr j done;
    (* concurrency integral over the idle iterations since the last one *)
    conc_sum := !conc_sum + ((iter - !last_iter) * !cur_conc);
    last_iter := iter;
    let corrupted = ref false in
    for x = !i to !j - 1 do
      let ev = order.(x) in
      if ev.k = Event.clock_corruption then begin
        obs.(ev.p) <- ev.obs;
        corrupted := true
      end
    done;
    if !corrupted then begin
      Observer.fault observer (Array.copy obs);
      faults := iter :: !faults
    end;
    for x = !i to !j - 1 do
      let ev = order.(x) in
      if ev.k <> Event.clock_corruption then begin
        obs.(ev.p) <- ev.obs;
        let after = Array.copy obs in
        cur := x;
        (* the trace does not record RequestOut; see the caveat in the
           interface — voluntary-discussion is evaluated permissively *)
        Observer.step observer ~step:iter ~round:0 ~request_out:(fun _ -> true)
          after;
        if !recover_idx = None && Observer.recovered observer <> None then
          recover_idx := Some x;
        cur_conc := List.length (Obs.meetings h after);
        if !cur_conc > !dfc then dfc := !cur_conc
      end
    done;
    i := !j
  done;
  let horizon = max horizon (!last_iter + 1) in
  conc_sum := !conc_sum + ((horizon - !last_iter) * !cur_conc);
  let spec = Observer.spec observer in
  {
    r_violations = Spec.violations spec;
    r_convened = Spec.convened spec;
    r_faults = List.rev !faults;
    r_recover = Observer.recovered observer;
    r_recover_idx = !recover_idx;
    r_spans = List.rev !spans;
    r_dfc = !dfc;
    r_mean = (if horizon = 0 then 0. else float_of_int !conc_sum /. float_of_int horizon);
  }

(* ----- causal DFC: width of the meeting-span poset ---------------------- *)

(* Dilworth via minimum path cover: on the transitive closure of the
   precedence DAG, width = spans - maximum bipartite matching. *)
let poset_width (spans : span array) =
  let m = Array.length spans in
  if m = 0 then 0
  else begin
    let prec = Array.make_matrix m m false in
    for a = 0 to m - 1 do
      match spans.(a).close_clock with
      | None -> ()
      | Some tc ->
        for b = 0 to m - 1 do
          if a <> b && Vclock.leq tc spans.(b).convene_clock then
            prec.(a).(b) <- true
        done
    done;
    (* transitive closure (the raw relation need not be transitive:
       convene and close stamps of one span can be concurrent with a
       third span's) *)
    for k = 0 to m - 1 do
      for a = 0 to m - 1 do
        if prec.(a).(k) then
          for b = 0 to m - 1 do
            if prec.(k).(b) then prec.(a).(b) <- true
          done
      done
    done;
    let matched = Array.make m (-1) in
    let rec augment a seen =
      let found = ref false in
      let b = ref 0 in
      while (not !found) && !b < m do
        if prec.(a).(!b) && not seen.(!b) then begin
          seen.(!b) <- true;
          if matched.(!b) < 0 || augment matched.(!b) seen then begin
            matched.(!b) <- a;
            found := true
          end
        end;
        incr b
      done;
      !found
    in
    let matching = ref 0 in
    for a = 0 to m - 1 do
      if augment a (Array.make m false) then incr matching
    done;
    m - !matching
  end

(* ----- critical path ----------------------------------------------------- *)

(* Longest happens-before chain from the corruption burst to the
   recovering event.  Predecessor edges are recovered from the clocks: the
   own-chain predecessor, plus — for every component that grew relative to
   it — the event of that process with the matching own component (the
   merge contribution of an accepted snapshot). *)
let find_critical_path n (order : node array) ~burst ~recover_idx =
  match (burst, recover_idx) with
  | None, _ | _, None -> []
  | Some burst, Some ridx ->
    let total = Array.length order in
    let index = Hashtbl.create (2 * total) in
    Array.iteri (fun i ev -> Hashtbl.replace index (ev.p, ev.clock.(ev.p)) i) order;
    let prev_clock = Array.make total [||] in
    let preds = Array.make total [] in
    Array.iteri
      (fun i ev ->
        let own = ev.clock.(ev.p) in
        let prev =
          if own <= 2 then None else Hashtbl.find_opt index (ev.p, own - 1)
        in
        let pc =
          match prev with
          | Some j -> order.(j).clock
          | None ->
            Array.init n (fun q -> if q = ev.p then own - 1 else 0)
        in
        prev_clock.(i) <- pc;
        let acc = ref (match prev with Some j -> [ j ] | None -> []) in
        for q = 0 to n - 1 do
          if q <> ev.p && ev.clock.(q) > pc.(q) then
            match Hashtbl.find_opt index (q, ev.clock.(q)) with
            | Some j -> acc := j :: !acc
            | None -> ()  (* the sender's init stamp *)
        done;
        preds.(i) <- !acc)
      order;
    let depth = Array.make total 0 in
    let back = Array.make total (-1) in
    Array.iteri
      (fun i ev ->
        if ev.k = Event.clock_corruption && ev.iter = burst then depth.(i) <- 1;
        List.iter
          (fun j ->
            if depth.(j) > 0 && depth.(j) + 1 > depth.(i) then begin
              depth.(i) <- depth.(j) + 1;
              back.(i) <- j
            end)
          preds.(i))
      order;
    if depth.(ridx) = 0 then []
    else begin
      let rec walk i acc =
        let acc = order.(i) :: acc in
        if back.(i) < 0 then acc else walk back.(i) acc
      in
      walk ridx []
    end

(* ----- entry point ------------------------------------------------------- *)

let analyze events =
  let* h = find_topo events in
  let n = H.n h in
  let stamps = clock_events events in
  if stamps = [] then Error "trace carries no clock events"
  else
    let* init_obs, rest = split_init n stamps in
    let* per = chains n rest in
    let* order = linearize n per in
    let horizon =
      match run_end_steps events with
      | Some s -> s
      | None ->
        Array.fold_left (fun acc ev -> max acc (ev.iter + 1)) 0 order
    in
    let r = replay h init_obs order ~horizon in
    let burst = match r.r_faults with [] -> None | i :: _ -> Some i in
    Ok
      {
        h;
        n;
        order;
        init_obs;
        horizon;
        violations = r.r_violations;
        convened = r.r_convened;
        fault_iters = r.r_faults;
        recover_iter = r.r_recover;
        stabilized_in =
          (match (burst, r.r_recover) with
           | Some b, Some rc -> Some (rc - b)
           | _ -> None);
        spans = r.r_spans;
        dfc_schedule = r.r_dfc;
        mean_concurrency = r.r_mean;
        dfc_causal = poset_width (Array.of_list r.r_spans);
        critical_path =
          find_critical_path n order ~burst ~recover_idx:r.r_recover_idx;
      }

(* ----- cuts -------------------------------------------------------------- *)

let cut_consistent t f =
  if Array.length f <> t.n then false
  else begin
    let per = Array.make t.n [] in
    Array.iter (fun ev -> per.(ev.p) <- ev :: per.(ev.p)) t.order;
    let per = Array.map (fun evs -> Array.of_list (List.rev evs)) per in
    let ok = ref true in
    Array.iteri
      (fun p evs ->
        if f.(p) < 0 || f.(p) > Array.length evs + 1 then ok := false
        else if f.(p) >= 2 then begin
          (* own components count the init stamp, so the last included
             event of p is rank f.(p)-2 in its post-init chain *)
          let c = evs.(f.(p) - 2).clock in
          for q = 0 to t.n - 1 do
            if c.(q) > f.(q) then ok := false
          done
        end)
      per;
    !ok
  end

let iter_cuts t fn =
  let frontier = Array.make t.n 1 in
  let obs = Array.copy t.init_obs in
  fn ~idx:0 ~frontier:(Array.copy frontier) ~obs:(Array.copy obs);
  Array.iteri
    (fun i ev ->
      frontier.(ev.p) <- ev.clock.(ev.p);
      obs.(ev.p) <- ev.obs;
      fn ~idx:(i + 1) ~frontier:(Array.copy frontier) ~obs:(Array.copy obs))
    t.order

(* ----- oracle parity ----------------------------------------------------- *)

type parity = {
  verdicts_ok : bool;
  convenes_ok : bool;
  convenes_checked : bool;
  stabilization_ok : bool;
  mismatches : string list;
}

let parity t events =
  let dedup l = List.sort_uniq compare l in
  let obs_verdicts =
    dedup
      (List.filter_map
         (function
           | Event.Verdict { rule; detail; _ } -> Some (rule, detail)
           | _ -> None)
         events)
  in
  let causal_verdicts =
    dedup
      (List.map (fun (v : Spec.violation) -> (v.Spec.rule, v.Spec.detail)) t.violations)
  in
  let obs_convenes =
    List.filter_map
      (function Event.Convene { step; eid; _ } -> Some (step, eid) | _ -> None)
      events
  in
  let obs_fault =
    List.fold_left
      (fun acc ev ->
        match (acc, ev) with
        | None, Event.Fault { step; _ } -> Some step
        | acc, _ -> acc)
      None events
  in
  let obs_recover =
    List.fold_left
      (fun acc ev ->
        match (acc, ev) with
        | None, Event.Recover { step; _ } -> Some step
        | acc, _ -> acc)
      None events
  in
  let mism = ref [] in
  let verdicts_ok = obs_verdicts = causal_verdicts in
  if not verdicts_ok then
    mism :=
      Printf.sprintf "verdicts: observer has %d distinct, replay %d"
        (List.length obs_verdicts)
        (List.length causal_verdicts)
      :: !mism;
  let convenes_checked = obs_convenes <> [] in
  let convenes_ok = (not convenes_checked) || obs_convenes = t.convened in
  if not convenes_ok then
    mism :=
      Printf.sprintf "convenes: observer ledger has %d entries, replay %d%s"
        (List.length obs_convenes)
        (List.length t.convened)
        (match
           List.find_opt
             (fun (a, b) -> a <> b)
             (List.combine
                (List.filteri
                   (fun i _ -> i < min (List.length obs_convenes) (List.length t.convened))
                   obs_convenes)
                (List.filteri
                   (fun i _ -> i < min (List.length obs_convenes) (List.length t.convened))
                   t.convened))
         with
         | Some ((s1, e1), (s2, e2)) ->
           Printf.sprintf "; first divergence (%d,%d) vs (%d,%d)" s1 e1 s2 e2
         | None -> "")
      :: !mism;
  let burst = match t.fault_iters with [] -> None | i :: _ -> Some i in
  let stabilization_ok = obs_fault = burst && obs_recover = t.recover_iter in
  if not stabilization_ok then
    mism :=
      (let s = function None -> "-" | Some i -> string_of_int i in
       Printf.sprintf
         "stabilization: observer fault@%s recover@%s, replay fault@%s recover@%s"
         (s obs_fault) (s obs_recover) (s burst) (s t.recover_iter))
      :: !mism;
  { verdicts_ok; convenes_ok; convenes_checked; stabilization_ok;
    mismatches = List.rev !mism }

let parity_ok p = p.verdicts_ok && p.convenes_ok && p.stabilization_ok

(* ----- rendering --------------------------------------------------------- *)

let opt_int = function None -> Json.Null | Some i -> Json.Int i

let to_json t =
  Json.Obj
    [ ("processes", Json.Int t.n);
      ("committees", Json.Int (H.m t.h));
      ("events", Json.Int (Array.length t.order));
      ("cuts", Json.Int (Array.length t.order + 1));
      ("horizon", Json.Int t.horizon);
      ("faults", Json.List (List.map (fun i -> Json.Int i) t.fault_iters));
      ("recover", opt_int t.recover_iter);
      ("stabilized_in", opt_int t.stabilized_in);
      ("convenes", Json.Int (List.length t.convened));
      ( "convened",
        Json.List
          (List.map
             (fun (s, e) -> Json.List [ Json.Int s; Json.Int e ])
             t.convened) );
      ( "violations",
        Json.List
          (List.map
             (fun (v : Spec.violation) ->
               Json.Obj
                 [ ("step", Json.Int v.Spec.step);
                   ("rule", Json.String v.Spec.rule);
                   ("detail", Json.String v.Spec.detail) ])
             t.violations) );
      ("dfc_schedule", Json.Int t.dfc_schedule);
      ("dfc_causal", Json.Int t.dfc_causal);
      ("mean_concurrency", Json.Float t.mean_concurrency);
      ( "meetings",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("eid", Json.Int s.eid);
                   ("open", Json.Int s.convene_iter);
                   ("close", opt_int s.close_iter) ])
             t.spans) );
      ("critical_path_len", Json.Int (List.length t.critical_path));
      ( "critical_path",
        Json.List
          (List.map
             (fun ev ->
               Json.Obj
                 [ ("p", Json.Int ev.p);
                   ("iter", Json.Int ev.iter);
                   ("k", Json.Int ev.k) ])
             t.critical_path) );
    ]

let parity_to_json p =
  Json.Obj
    [ ("ok", Json.Bool (parity_ok p));
      ("verdicts_ok", Json.Bool p.verdicts_ok);
      ("convenes_ok", Json.Bool p.convenes_ok);
      ("convenes_checked", Json.Bool p.convenes_checked);
      ("stabilization_ok", Json.Bool p.stabilization_ok);
      ("mismatches", Json.List (List.map (fun s -> Json.String s) p.mismatches));
    ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>causal reconstruction: %d events over %d processes (%d consistent \
     cuts)@,\
     meetings: %d convened, %d spans; DFC %d causal vs %d schedule (mean \
     concurrency %.2f)@,\
     verdicts: %d violations"
    (Array.length t.order) t.n
    (Array.length t.order + 1)
    (List.length t.convened)
    (List.length t.spans) t.dfc_causal t.dfc_schedule t.mean_concurrency
    (List.length t.violations);
  (match t.fault_iters with
   | [] -> ()
   | b :: _ ->
     Format.fprintf ppf "@,fault at iteration %d: " b;
     (match (t.recover_iter, t.stabilized_in) with
      | Some r, Some d ->
        Format.fprintf ppf
          "recovered at %d (stabilized in %d steps; critical path %d events)" r
          d
          (List.length t.critical_path)
      | _ -> Format.fprintf ppf "no recovery before the horizon"));
  Format.fprintf ppf "@]"

let pp_parity ppf p =
  if parity_ok p then
    Format.fprintf ppf "oracle parity: OK%s"
      (if p.convenes_checked then " (verdicts, convene ledger, stabilization)"
       else " (verdicts, stabilization; no observer convene events to check)")
  else
    Format.fprintf ppf "@[<v>oracle parity: MISMATCH@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
      p.mismatches

module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry

type summary = {
  steps : int;
  rounds : int;
  convenes : int;
  mean_concurrency : float;
  max_concurrency : int;
  completed_waits_steps : int list;
  completed_waits_rounds : int list;
  open_waits_steps : int list;
  max_wait_steps : int;
  max_wait_rounds : int;
  starved : int list;
}

(* A waiting span opens when a professor enters the waiting state (status
   looking/waiting) while not participating in a meeting, and closes when a
   meeting it belongs to convenes. *)
type wait = { since_step : int; since_round : int }

type t = {
  h : H.t;
  mutable steps : int;
  mutable convenes : int;
  mutable concurrency_sum : int;
  mutable max_concurrency : int;
  waits : wait option array;
  mutable rev_completed_steps : int list;
  mutable rev_completed_rounds : int list;
  telemetry : Tele.Hub.t option;
  mutable last : Obs.t array;  (* the last [after] processed *)
  mutable last_k : int;  (* meetings in [last] *)
  mutable settled : bool;
      (* [waits] is at its fixpoint for [last]: the step that processed it
         opened no wait for a professor inside a meeting (the next step
         over [last] would drop that wait) *)
}

let emit t ev =
  match t.telemetry with Some hub -> Tele.Hub.emit hub ev | None -> ()

let create ?telemetry h ~initial =
  let waits = Array.make (H.n h) None in
  Array.iteri
    (fun p (o : Obs.t) ->
      if Obs.is_waiting o then waits.(p) <- Some { since_step = 0; since_round = 0 })
    initial;
  {
    h;
    steps = 0;
    convenes = 0;
    concurrency_sum = 0;
    max_concurrency = 0;
    waits;
    rev_completed_steps = [];
    rev_completed_rounds = [];
    telemetry;
    last = [||];
    last_k = 0;
    settled = false;
  }

let in_meeting t meetings p =
  List.exists (fun e -> Array.exists (fun q -> q = p) (H.edge_members t.h e)) meetings

let full_step t ~step ~round ~before ~after =
  t.steps <- t.steps + 1;
  t.settled <- true;
  let meetings = Obs.meetings t.h after in
  let k = List.length meetings in
  t.concurrency_sum <- t.concurrency_sum + k;
  if k > t.max_concurrency then t.max_concurrency <- k;
  (* terminated committees (met before, not after) — telemetry only *)
  (match t.telemetry with
   | None -> ()
   | Some _ ->
     List.iter
       (fun e ->
         if not (List.mem e meetings) then
           emit t (Tele.Event.Terminate { step; round; eid = e }))
       (Obs.meetings t.h before));
  (* convened committees close the waiting spans of their members *)
  List.iter
    (fun e ->
      if not (Obs.meets t.h before e) then begin
        t.convenes <- t.convenes + 1;
        emit t (Tele.Event.Convene { step; round; eid = e });
        Array.iter
          (fun q ->
            match t.waits.(q) with
            | None -> ()
            | Some w ->
              let waited_steps = step - w.since_step in
              let waited_rounds = round - w.since_round in
              t.rev_completed_steps <- waited_steps :: t.rev_completed_steps;
              t.rev_completed_rounds <- waited_rounds :: t.rev_completed_rounds;
              emit t
                (Tele.Event.Wait_close
                   { step; round; p = q; waited_steps; waited_rounds });
              (match t.telemetry with
               | Some hub ->
                 Tele.Registry.observe
                   (Tele.Registry.histogram (Tele.Hub.registry hub) "wait_steps")
                   waited_steps
               | None -> ());
              t.waits.(q) <- None)
          (H.edge_members t.h e)
      end)
    meetings;
  (* participants of ongoing meetings are not waiting, even when their
     status reads [waiting] (meetings inherited from an arbitrary initial
     configuration) *)
  List.iter
    (fun e -> Array.iter (fun q -> t.waits.(q) <- None) (H.edge_members t.h e))
    meetings;
  (* spans open when a professor (re)enters the waiting state *)
  Array.iteri
    (fun p (o : Obs.t) ->
      match t.waits.(p) with
      | Some _ ->
        (* a span survives only while the professor keeps waiting and is
           not in a meeting *)
        if not (Obs.is_waiting o) then t.waits.(p) <- None
      | None ->
        if Obs.is_waiting o && not (Obs.is_waiting before.(p)) then begin
          t.waits.(p) <- Some { since_step = step; since_round = round };
          if in_meeting t meetings p then t.settled <- false;
          emit t (Tele.Event.Wait_open { step; round; p })
        end)
    after;
  t.last <- after;
  t.last_k <- k

(* A step that changed nothing over the configuration processed last only
   counts itself and its concurrency once the wait book is settled: the
   full pass would emit nothing and change no wait. *)
let on_step t ~step ~round ~before ~after =
  if before == after && after == t.last && t.settled then begin
    t.steps <- t.steps + 1;
    t.concurrency_sum <- t.concurrency_sum + t.last_k
  end
  else full_step t ~step ~round ~before ~after

let mean = function
  | [] -> 0.
  | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let maximum = function [] -> 0 | l -> List.fold_left max min_int l

let percentile q l = Tele.Registry.nearest_rank q (Array.of_list l)

let finish t ~step ~round =
  let open_steps = ref [] and open_rounds = ref [] and starved = ref [] in
  let longest = ref 0 in
  Array.iteri
    (fun p w ->
      match w with
      | None -> ()
      | Some w ->
        let d = step - w.since_step in
        open_steps := d :: !open_steps;
        open_rounds := (round - w.since_round) :: !open_rounds;
        if d > !longest then begin
          longest := d;
          starved := [ p ]
        end
        else if d = !longest && d > 0 then starved := p :: !starved)
    t.waits;
  let completed_steps = List.rev t.rev_completed_steps in
  let completed_rounds = List.rev t.rev_completed_rounds in
  {
    steps = t.steps;
    rounds = round;
    convenes = t.convenes;
    mean_concurrency =
      (if t.steps = 0 then 0.
       else float_of_int t.concurrency_sum /. float_of_int t.steps);
    max_concurrency = t.max_concurrency;
    completed_waits_steps = completed_steps;
    completed_waits_rounds = completed_rounds;
    open_waits_steps = !open_steps;
    max_wait_steps = max (maximum completed_steps) (maximum !open_steps);
    max_wait_rounds = max (maximum completed_rounds) (maximum !open_rounds);
    starved = List.sort compare !starved;
  }

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "@[<v>steps=%d rounds=%d convenes=%d@ concurrency: mean=%.2f max=%d@ waits \
     (steps): served=%d mean=%.1f max=%d@ waits (rounds): max=%d@ open waits=%d \
     starved=[%s]@]"
    s.steps s.rounds s.convenes s.mean_concurrency s.max_concurrency
    (List.length s.completed_waits_steps)
    (mean s.completed_waits_steps)
    s.max_wait_steps s.max_wait_rounds
    (List.length s.open_waits_steps)
    (String.concat "," (List.map string_of_int s.starved))

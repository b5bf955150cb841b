module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module IntSet = Set.Make (Int)

(* Uniform input modes: guards may branch on the request predicates, so the
   checks run under every combination (applied to all processes alike). *)
let input_modes = Array.to_list Model.input_modes

module Make (A : Model.ALGO) = struct
  (* Printed-state fingerprints stand in for a generic deep copy: they are
     how in-place mutation is detected (the value a statement returned is
     assigned by the engine; every {e existing} state must print the same
     before and after).  Lossy printers weaken the check, never break it. *)
  let fp st = Format.asprintf "%a" A.pp_state st
  let fp_config states = String.concat "\x1d" (Array.to_list (Array.map fp states))

  (* The engine's step of [p], uninstrumented; [None] when nothing is
     enabled or on a crash (the checking pass reports it). *)
  let priority_step h states inputs p actions =
    let ctx = { Model.h; inputs; self = p; read = Array.get states } in
    try
      let i = Model.priority actions ctx in
      if i < 0 then None else Some (actions.(i).Model.apply ctx)
    with _ -> None

  let analyze ?(seed = 0) ?(seeds = 24) ?(max_configs = 240) ?(allow = [])
      ~topo h =
    let n = H.n h in
    let actions = Array.of_list (A.actions h) in
    let nact = Array.length actions in
    let evals = ref 0 in
    let guard_true = Array.make nact 0 in
    let findings = Report.tally () in
    let record rule ~action ~proc detail =
      Report.note findings { Report.rule; action; proc; count = 1; detail }
    in
    let overlaps : (string list, int * int) Hashtbl.t = Hashtbl.create 16 in
    let interference : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
    let local p q = q = p || H.are_neighbors h p q in

    (* Evaluate action [i] of process [p]: footprint plus all per-action
       checks.  Returns [(enabled, reads, result)]; [result] is the new
       state when enabled and the statement did not crash. *)
    let eval_action states inputs p i =
      let a = actions.(i) in
      let label = a.Model.label in
      let reads = ref IntSet.empty in
      let ctx =
        { Model.h; inputs; self = p;
          read = (fun q -> reads := IntSet.add q !reads; states.(q)) }
      in
      incr evals;
      let enabled, result =
        match a.Model.guard ctx with
        | exception exn ->
          record Report.Crash ~action:label ~proc:p
            (Printf.sprintf "guard raised %s" (Printexc.to_string exn));
          (false, None)
        | g1 ->
          (match a.Model.guard ctx with
           | exception exn ->
             record Report.Crash ~action:label ~proc:p
               (Printf.sprintf "guard raised %s on re-evaluation"
                  (Printexc.to_string exn))
           | g2 ->
             if g1 <> g2 then
               record Report.Determinism ~action:label ~proc:p
                 "guard disagreed with itself on the same configuration");
          if not g1 then (false, None)
          else begin
            guard_true.(i) <- guard_true.(i) + 1;
            let before = Array.map fp states in
            match a.Model.apply ctx with
            | exception exn ->
              record Report.Crash ~action:label ~proc:p
                (Printf.sprintf "statement raised %s" (Printexc.to_string exn));
              (true, None)
            | s1 ->
              Array.iteri
                (fun q fq ->
                  if not (String.equal (fp states.(q)) fq) then
                    record Report.Write_ownership ~action:label ~proc:p
                      (if q = p then
                         Printf.sprintf
                           "statement of %d mutated its own pre-step state in \
                            place (breaks step atomicity)"
                           p
                       else
                         Printf.sprintf "statement of %d mutated the state of %d"
                           p q))
                before;
              (match a.Model.apply ctx with
               | exception exn ->
                 record Report.Crash ~action:label ~proc:p
                   (Printf.sprintf "statement raised %s on re-evaluation"
                      (Printexc.to_string exn))
               | s2 ->
                 if not (A.equal_state s1 s2 && String.equal (fp s1) (fp s2))
                 then
                   record Report.Determinism ~action:label ~proc:p
                     "statement produced different states on the same \
                      configuration");
              (true, Some s1)
          end
      in
      IntSet.iter
        (fun q ->
          if not (local p q) then
            record Report.Locality ~action:label ~proc:p
              (Printf.sprintf "process %d read the state of non-neighbor %d" p q))
        !reads;
      (enabled, !reads, result)
    in

    let analyze_config states inputs =
      let enabled = Array.make_matrix n nact false in
      let reads = Array.make_matrix n nact IntSet.empty in
      let results = Array.init n (fun _ -> Array.make nact None) in
      (* the engine executes the enabled action latest in code order
         ([-1]: none); everything below records against that choice *)
      let priority = Array.make n (-1) in
      for p = 0 to n - 1 do
        for i = 0 to nact - 1 do
          let e, r, res = eval_action states inputs p i in
          enabled.(p).(i) <- e;
          reads.(p).(i) <- r;
          results.(p).(i) <- res;
          if e then priority.(p) <- i
        done
      done;
      for p = 0 to n - 1 do
        (* priority overlap: ≥2 enabled actions of one process *)
        let labels =
          List.filter_map
            (fun i -> if enabled.(p).(i) then Some actions.(i).Model.label else None)
            (List.init nact Fun.id)
        in
        if List.length labels >= 2 then begin
          match Hashtbl.find_opt overlaps labels with
          | Some (c, ex) -> Hashtbl.replace overlaps labels (c + 1, ex)
          | None -> Hashtbl.replace overlaps labels (1, p)
        end
      done;
      (* read/write interference between concurrently enabled neighbors:
         the writer's execution changes its state; the reader's evaluation
         (priority scan plus executed statement) reads it *)
      for p = 0 to n - 1 do
        let ip = priority.(p) in
        if ip >= 0 then begin
          let changes =
            match results.(p).(ip) with
            | Some s' -> not (A.equal_state states.(p) s')
            | None -> false
          in
          if changes then
            for q = 0 to n - 1 do
              let iq = priority.(q) in
              if q <> p && H.are_neighbors h p q && iq >= 0 then begin
                (* in the engine, q evaluates the guards of actions iq..last
                   (backwards scan) and the statement of iq *)
                let scan_reads = ref IntSet.empty in
                for j = iq to nact - 1 do
                  scan_reads := IntSet.union !scan_reads reads.(q).(j)
                done;
                if IntSet.mem p !scan_reads then begin
                  let key =
                    (actions.(ip).Model.label, actions.(iq).Model.label)
                  in
                  let c =
                    Option.value ~default:0 (Hashtbl.find_opt interference key)
                  in
                  Hashtbl.replace interference key (c + 1)
                end
              end
            done
        end
      done
    in

    (* Reachable-set enumeration: breadth-first from the canonical initial
       configuration and [seeds] random (post-fault) ones, expanding by
       every single-process step and the synchronous step, under every
       input mode, deduplicating on printed state, capped at [max_configs].
       Each configuration is analyzed {e when popped}, before its
       successors are computed: a statement that mutates shared state in
       place must commit its first mutation under instrumentation, where
       the fingerprint comparison catches it. *)
    let seen = Hashtbl.create 97 in
    let queue = Queue.create () in
    let count = ref 0 in
    let add states =
      let key = fp_config states in
      if (not (Hashtbl.mem seen key)) && !count < max_configs then begin
        Hashtbl.add seen key ();
        incr count;
        Queue.add states queue
      end
    in
    add (Array.init n (A.init h));
    for s = 1 to seeds do
      let rng = Random.State.make [| s; n; seed; 0x57a71c5 |] in
      add (Array.init n (A.random_init h rng))
    done;
    let analyzed = ref 0 in
    while not (Queue.is_empty queue) do
      let states = Queue.pop queue in
      incr analyzed;
      List.iter (fun (_, inputs) -> analyze_config states inputs) input_modes;
      List.iter
        (fun (_, inputs) ->
          let moves =
            List.filter_map
              (fun p ->
                Option.map (fun s' -> (p, s')) (priority_step h states inputs p actions))
              (List.init n Fun.id)
          in
          List.iter
            (fun (p, s') ->
              let next = Array.copy states in
              next.(p) <- s';
              add next)
            moves;
          if List.length moves > 1 then begin
            let next = Array.copy states in
            List.iter (fun (p, s') -> next.(p) <- s') moves;
            add next
          end)
        input_modes
    done;

    Report.build ~algo:A.name ~topo ~tier:"sampled" ~configs:!analyzed
      ~evals:!evals ~allow ~proven:false
      ~labels:(Array.map (fun a -> a.Model.label) actions)
      ~guard_true
      ~overlaps:
        (Hashtbl.fold
           (fun labels (times, example) acc -> (labels, times, example) :: acc)
           overlaps [])
      ~interference:
        (Hashtbl.fold
           (fun (writer, reader) times acc -> (writer, reader, times) :: acc)
           interference [])
      findings
end

module H = Snapcc_hypergraph.Hypergraph

let to_json ~frontier reports =
  let open Snapcc_telemetry.Json in
  Obj
    [ ("reports", List (List.map Report.to_json reports));
      ("frontier",
       List
         (List.map
            (fun (configs, transitions) ->
              Obj [ ("configs", Int configs); ("transitions", Int transitions) ])
            frontier)) ]

module Make (S : System.S) = struct
  module Ex = Explore.Make (S)
  module Cex = Counterexample.Make (S)

  type t = {
    report : Report.t;
    escapees : (int * S.state) list;
    cex : Counterexample.t option;
  }

  let run ?max_configs ?(keep_going = false) ?(sample = 0) ?(seed = 1)
      ?on_progress ?tables ?symmetry ?(since = Sys.time ()) ~algo ~token ~topo
      h =
    let n = H.n h in
    let roots =
      if sample = 0 then `Domain
      else begin
        let rng = Random.State.make [| seed |] in
        let canonical = Array.init n (S.init h) in
        `States
          (canonical
          :: List.init sample (fun _ ->
                 Array.init n (fun p -> S.random_init h rng p)))
      end
    in
    let outside_roots =
      match roots with
      | `Domain -> 0
      | `States l ->
        let domains = Array.init n (S.domain h) in
        let inside cfg =
          Array.for_all2
            (fun d s -> List.exists (S.equal_state s) d)
            domains
            (Array.mapi (S.canon h) cfg)
        in
        List.length (List.filter (fun cfg -> not (inside cfg)) l)
    in
    let result =
      Ex.explore ?max_configs ?on_progress ?tables ?symmetry ~roots
        ~stop_on_first:(not keep_going) h
    in
    let seconds = Sys.time () -. since in
    let violations = Ex.violations result in
    let verdict =
      if Ex.complete result then
        Some
          (Fairness.analyze ~n ~n_configs:(Ex.n_configs result)
             ~succs:(Ex.succs_inout result)
             ~convenes:(Ex.convening result)
             ~enabled_mask:(Ex.enabled_inout result)
             ~committee_waiting:(Ex.committee_waiting result)
             ())
      else None
    in
    let count f = match verdict with Some v -> f v | None -> 0 in
    let report =
      { Report.algo;
        token;
        topo;
        product = Ex.product_size result;
        configs = Ex.n_configs result;
        symmetry_order = Ex.symmetry_order result;
        transitions = Ex.n_transitions result;
        complete = Ex.complete result;
        escapees = List.length (Ex.escapees result);
        outside_roots;
        dead = Ex.dead_actions result;
        safety_violations = List.length violations;
        first_rule =
          (match violations with [] -> None | v :: _ -> Some v.Explore.rule);
        progress_checked = verdict <> None;
        sccs = count (fun v -> v.Fairness.sccs);
        largest_scc = count (fun v -> v.Fairness.largest_scc);
        deadlocks = count (fun v -> List.length v.Fairness.deadlocks);
        livelocks = count (fun v -> List.length v.Fairness.livelocks);
        seconds }
    in
    let witness =
      match (violations, verdict) with
      | v :: _, _ ->
        let root, steps = Ex.path_to result v.Explore.source in
        (* under [symmetry] the recorded selection is relative to the
           canonical configuration; re-express it at the endpoint of the
           lifted path *)
        let last =
          if v.Explore.mode < 0 then []
          else
            [ (v.Explore.mode,
               Ex.lift_selection result v.Explore.source v.Explore.selected) ]
        in
        Some
          (Counterexample.of_safety ~algo ~token ~topo ~rule:v.Explore.rule
             ~detail:v.Explore.detail ~init:root ~steps:(steps @ last))
      | [], Some { Fairness.deadlocks = cid :: _; _ } ->
        let root, steps = Ex.path_to result cid in
        Some
          (Counterexample.of_deadlock ~algo ~token ~topo
             ~detail:"terminal configuration with a fully waiting committee"
             ~init:root ~steps)
      | [], Some { Fairness.livelocks = l :: _; _ } ->
        let root, steps = Ex.path_to result l.Fairness.witness in
        Some
          (Counterexample.of_livelock ~algo ~token ~topo
             ~detail:
               (Printf.sprintf
                  "weakly fair convene-free cycle (SCC of %d configurations)"
                  l.Fairness.scc_size)
             ~init:root ~steps ~loop:l.Fairness.cycle)
      | [], _ -> None
    in
    { report;
      escapees = Ex.escapees result;
      cex = Option.map (Cex.minimize h) witness }
end

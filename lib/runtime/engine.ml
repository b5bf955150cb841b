module H = Snapcc_hypergraph.Hypergraph

module Make (A : Model.ALGO) = struct
  type t = {
    h : H.t;
    mutable states : A.state array;
    actions : A.state Model.action array;  (* index = code order; last = top priority *)
    daemon : Daemon.t;
    rng : Random.State.t;
    check_locality : bool;
    mutable step_no : int;
    mutable round_no : int;
    mutable round_pending : bool array option;
        (* processes from the round's initial enabled set still to activate
           or neutralize; [None] until the first step establishes it *)
    cont_enabled : int array;
    (* packed fast path: [ids] mirrors [states] as dense ids of the
       canonicalized states while [packed] is live *)
    mutable packed : A.state Model.packed option;
    ids : int array;
    (* incremental guard evaluation: per process, the last priority scan —
       action index ([-1] = disabled) and footprint (the processes whose
       state or input predicates the scan consulted, or N[p] for an answer
       the memo served).  An entry is rescanned when its footprint meets a
       [dirty] process — one that executed, or whose input mode ([modes];
       [-1] = unknown) changed.  All entries are rescanned while
       [rescan_all] is set: at creation, after a fault or [set_states],
       and after an interner overflow. *)
    act : int array;
    foot : int array array;
    mutable rescan_all : bool;
    dirty : bool array;
    modes : int array;
    phase : int array;  (* step scratch: 0 disabled, 1 enabled, 2 executed *)
    (* reads of the running closure scan: the first [nreads] cells of
       [reads] hold the processes whose [mark] is the current [gen] *)
    mark : int array;
    mutable gen : int;
    reads : int array;
    mutable nreads : int;
    (* hot-path profiling: monotone counters, no wall-clock reads *)
    mutable prof_scan_hits : int;
    mutable prof_scan_fallbacks : int;
    mutable prof_scan_reused : int;
    mutable prof_applies : int;
    mutable prof_selects : int;
  }

  let create ?(seed = 0) ?(check_locality = false) ?(init = `Canonical)
      ?packed ~daemon h =
    let n = H.n h in
    let rng = Random.State.make [| seed; n; 0xcc |] in
    let states =
      match init with
      | `Canonical -> Array.init n (A.init h)
      | `Random -> Array.init n (A.random_init h rng)
      | `States s ->
        if Array.length s <> n then invalid_arg "Engine.create: bad state array";
        Array.copy s
    in
    let packed, ids =
      match packed with
      | None -> (None, [||])
      | Some pk -> (
        match Array.init n (fun p -> pk.Model.pk_intern p states.(p)) with
        | ids -> (Some pk, ids)
        | exception Failure _ -> (None, [||]))
    in
    {
      h;
      states;
      actions = Array.of_list (A.actions h);
      daemon;
      rng;
      check_locality;
      step_no = 0;
      round_no = 0;
      round_pending = None;
      cont_enabled = Array.make n 0;
      packed;
      ids;
      act = Array.make n (-1);
      foot = Array.make n [||];
      rescan_all = true;
      dirty = Array.make n false;
      modes = Array.make n (-1);
      phase = Array.make n 0;
      mark = Array.make n 0;
      gen = 0;
      reads = Array.make n 0;
      nreads = 0;
      prof_scan_hits = 0;
      prof_scan_fallbacks = 0;
      prof_scan_reused = 0;
      prof_applies = 0;
      prof_selects = 0;
    }

  let engine_kind t = if t.packed = None then `Closure else `Packed

  let hypergraph t = t.h
  let states t = Array.copy t.states
  let state t p = t.states.(p)

  (* Re-intern (part of) the mirror, dropping to closures for the rest of
     the run if the interner overflows its escapee headroom — states stay
     authoritative, so nothing is lost but speed. *)
  let reintern t ps =
    match t.packed with
    | None -> ()
    | Some pk -> (
      match List.iter (fun p -> t.ids.(p) <- pk.Model.pk_intern p t.states.(p)) ps with
      | () -> ()
      | exception Failure _ -> t.packed <- None)

  let set_states t s =
    if Array.length s <> H.n t.h then invalid_arg "Engine.set_states";
    t.states <- Array.copy s;
    reintern t (List.init (H.n t.h) Fun.id);
    t.rescan_all <- true

  let obs t = Array.init (H.n t.h) (A.observe t.h t.states)
  let steps_taken t = t.step_no
  let rounds t = t.round_no
  let rng t = t.rng

  let profile t =
    [ ("engine_scan_hits", t.prof_scan_hits);
      ("engine_scan_fallbacks", t.prof_scan_fallbacks);
      ("engine_scan_reused", t.prof_scan_reused);
      ("engine_applies", t.prof_applies);
      ("engine_selects", t.prof_selects) ]

  (* Every state read and input query of a guard or statement lands in the
     running scan's footprint; state reads also assert locality if asked. *)
  let note t q =
    if t.mark.(q) <> t.gen then begin
      t.mark.(q) <- t.gen;
      t.reads.(t.nreads) <- q;
      t.nreads <- t.nreads + 1
    end

  let ctx_for t ~inputs p : A.state Model.ctx =
    let read q =
      if t.check_locality && q <> p && not (H.are_neighbors t.h p q) then
        failwith
          (Printf.sprintf "locality violation: process %d read state of %d" p q);
      note t q;
      t.states.(q)
    in
    let inputs =
      { Model.request_in = (fun q -> note t q; inputs.Model.request_in q);
        request_out = (fun q -> note t q; inputs.Model.request_out q) }
    in
    { Model.h = t.h; inputs; read; self = p }

  let priority_action t ~inputs p = Model.priority t.actions (ctx_for t ~inputs p)

  let enabled t ~inputs =
    List.filter (fun p -> priority_action t ~inputs p >= 0) (List.init (H.n t.h) Fun.id)

  let is_terminal t ~inputs = enabled t ~inputs = []

  let enabled_action t ~inputs p =
    let i = priority_action t ~inputs p in
    if i < 0 then None else Some t.actions.(i).Model.label

  (* The closure scan of [p], whose footprint is its recorded reads. *)
  let scan t ~inputs p =
    t.gen <- t.gen + 1;
    t.nreads <- 0;
    t.act.(p) <- priority_action t ~inputs p;
    t.foot.(p) <- Array.sub t.reads 0 t.nreads

  (* The last scan read nothing outside N[p]. *)
  let local t p =
    let ok = ref true in
    for i = 0 to t.nreads - 1 do
      let q = t.reads.(i) in
      if q <> p && not (H.are_neighbors t.h p q) then ok := false
    done;
    !ok

  (* Recompute the entry of [p].  On the packed path the memo answers
     when it holds [p]'s neighbourhood key, with footprint N[p]; a miss
     runs the closure scan and stores its answer if the scan stayed inside
     N[p].  Guards are deterministic in what they read and cannot tell
     canon-equal states apart, so that answer holds on every configuration
     with the same key. *)
  let refresh t ~inputs p =
    match t.packed with
    | None -> scan t ~inputs p
    | Some pk ->
      let memo = pk.Model.pk_memo in
      let key = Memo.key memo ~ids:t.ids ~modes:t.modes p in
      let a = if key < 0 then -2 else Memo.find memo p key in
      if a >= -1 then begin
        t.prof_scan_hits <- t.prof_scan_hits + 1;
        t.act.(p) <- a;
        t.foot.(p) <- Memo.closed memo p
      end
      else begin
        t.prof_scan_fallbacks <- t.prof_scan_fallbacks + 1;
        scan t ~inputs p;
        if key >= 0 && local t p then Memo.add memo p key t.act.(p)
      end

  (* Bring every entry up to date with the configuration and [modes], then
     forget the dirty set.  Returns the enabled processes in ascending
     order, as {!enabled} does, so the daemon sees the selection problem
     of a full scan (and makes the same RNG draws). *)
  let rescan t ~inputs =
    let dirty q = t.dirty.(q) in
    let enabled = ref [] in
    for p = H.n t.h - 1 downto 0 do
      if t.rescan_all || Array.exists dirty t.foot.(p) then refresh t ~inputs p
      else t.prof_scan_reused <- t.prof_scan_reused + 1;
      if t.act.(p) >= 0 then enabled := p :: !enabled
    done;
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    t.rescan_all <- false;
    !enabled

  let step t ~inputs =
    let n = H.n t.h in
    for p = 0 to n - 1 do
      let m = Model.mode_of inputs p in
      if m <> t.modes.(p) then begin
        t.modes.(p) <- m;
        t.dirty.(p) <- true
      end
    done;
    let enabled_before = rescan t ~inputs in
    if enabled_before = [] then
      { Model.step = t.step_no; selected = []; executed = []; neutralized = [];
        round = t.round_no; terminal = true }
    else begin
      (* establish the first round's pending set lazily: enabledness depends
         on the step's inputs, unknown at creation time *)
      if t.round_pending = None then
        t.round_pending <- Some (Array.map (fun a -> a >= 0) t.act);
      let selected =
        Daemon.select t.daemon ~rng:t.rng ~step:t.step_no ~enabled:enabled_before
          ~continuously_enabled:(Array.get t.cont_enabled)
      in
      let selected = List.sort_uniq Int.compare selected in
      if selected = [] then invalid_arg "daemon selected an empty set";
      List.iter
        (fun p ->
          if p < 0 || p >= n || t.act.(p) < 0 then
            invalid_arg (Printf.sprintf "daemon selected disabled process %d" p))
        selected;
      (* every statement reads the pre-step configuration, so all run
         before any is written back; each executes its cached action as a
         closure on the true states, which stay authoritative on the packed
         path too, so packed and closure runs produce identical
         configurations by construction *)
      let executed =
        List.map
          (fun p ->
            let i = t.act.(p) in
            (p, i, t.actions.(i).Model.apply (ctx_for t ~inputs p)))
          selected
      in
      t.prof_selects <- t.prof_selects + 1;
      t.prof_applies <- t.prof_applies + List.length executed;
      Array.iteri (fun p a -> t.phase.(p) <- (if a >= 0 then 1 else 0)) t.act;
      List.iter
        (fun (p, _, s) ->
          t.states.(p) <- s;
          t.dirty.(p) <- true;
          t.phase.(p) <- 2)
        executed;
      (* mirror update: executed states are interned *)
      (match t.packed with
       | None -> ()
       | Some pk -> (
         match List.iter (fun (p, _, s) -> t.ids.(p) <- pk.Model.pk_intern p s) executed with
         | () -> ()
         | exception Failure _ ->
           t.packed <- None;
           t.rescan_all <- true));
      let executed = List.map (fun (p, i, _) -> (p, t.actions.(i).Model.label)) executed in
      ignore (rescan t ~inputs);
      let neutralized =
        List.filter (fun p -> t.phase.(p) = 1 && t.act.(p) < 0) enabled_before
      in
      (* weak-fairness and round accounting (§2.2): the round completes
         once every process of its initial enabled set has been activated
         or neutralized *)
      let pending = Option.get t.round_pending in
      for p = 0 to n - 1 do
        if t.phase.(p) = 2 || t.act.(p) < 0 then t.cont_enabled.(p) <- 0
        else if t.phase.(p) = 1 then t.cont_enabled.(p) <- t.cont_enabled.(p) + 1;
        if t.phase.(p) = 2 || (t.phase.(p) = 1 && t.act.(p) < 0) then
          pending.(p) <- false
      done;
      if not (Array.exists Fun.id pending) then begin
        t.round_no <- t.round_no + 1;
        Array.iteri (fun p a -> pending.(p) <- a >= 0) t.act
      end;
      let report =
        { Model.step = t.step_no; selected; executed; neutralized;
          round = t.round_no; terminal = false }
      in
      t.step_no <- t.step_no + 1;
      report
    end

  let run t ~steps ~inputs_at ?(on_step = fun _ _ -> ()) ?(stop_when = fun _ -> false) () =
    let rec go remaining =
      if remaining <= 0 then `Steps_exhausted
      else begin
        let inputs = inputs_at t in
        let report = step t ~inputs in
        if report.Model.terminal then `Terminal
        else begin
          on_step t report;
          if stop_when t then `Stopped else go (remaining - 1)
        end
      end
    in
    go steps

  let corrupt t ?rng ~victims () =
    (* every victim is checked before the first draw: a rejected call
       leaves the engine as it was *)
    if List.exists (fun p -> p < 0 || p >= H.n t.h) victims then
      invalid_arg "Engine.corrupt: bad victim";
    let rng = match rng with Some r -> r | None -> t.rng in
    let next = Array.copy t.states in
    List.iter
      (fun p ->
        next.(p) <- A.random_init t.h rng p;
        t.cont_enabled.(p) <- 0)
      victims;
    t.states <- next;
    reintern t victims;
    t.rescan_all <- true;
    (* a fault may disable pending processes without a step; restart the
       round measurement from the corrupted configuration *)
    t.round_pending <- None
end

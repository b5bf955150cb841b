module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Spec = Snapcc_analysis.Spec

type violation = {
  rule : string;
  detail : string;
  source : int;
  mode : int;
  selected : int list;
}

let mode_inputs = Array.map snd Model.input_modes
let mode_names = Array.map fst Model.input_modes
let mode_name i = if i < 0 || i >= Array.length mode_names then "-" else mode_names.(i)
let inout_mode = 3

module Make (Sys : System.S) = struct
  module Enc = Encode.Make (Sys)
  module Tb = Tables.Make (Sys)

  (* The fields of a configuration's record: the parent cid + 1 ([0] for
     roots), the parent step's mode + 1 and selection ([0] and [0] for
     roots), the in+out enabled mask and the offset of the in+out edges
     (both set once processed), and the mask of meeting committees. *)
  let f_parent = 0
  let f_mode = 1
  let f_sel = 2
  let f_enabled = 3
  let f_meets = 4
  let f_estart = 5

  (* The store costs a few words per configuration: its key and table
     slot in [table], then one packed record and its in+out edges, each
     packed in as many bits as [max_configs], n and m call for.  Which
     committees have every member waiting is recomputed on demand: only
     terminal configurations and livelock witnesses ask. *)
  type result = {
    h : H.t;
    enc : Enc.t;
    table : Enc.table;  (** configuration ids over packed keys *)
    layout : Bitpack.layout;  (** the record, fields [f_parent .. f_estart] *)
    recs : int Vec.t;  (** one record per cid *)
    ew : int;  (** bits per edge *)
    edges : int Vec.t;
        (** in+out edges, an item stream of [ew]-bit items
            [(((dst lsl 1) lor conv) lsl n) lor selmask], [conv] = the
            {e raw} transition convened a meeting *)
    mutable n_edges : int;
    mutable processed : int;  (** cids [0 .. processed - 1] are processed *)
    counts : int array;
    labels : string array;
    grp : Symmetry.group option;  (** quotient mode, when order > 1 *)
    raw_step : int array -> int -> int -> int array;
        (** raw successor ids of (config ids, mode, selmask) *)
    mutable transitions : int;
    mutable viols : violation list;
    mutable complete_ : bool;
  }

  let complete r = r.complete_
  let n_configs r = Enc.table_count r.table
  let n_transitions r = r.transitions
  let violations r = List.rev r.viols
  let escapees r = Enc.escapees r.enc
  let product_size r = Enc.product_size r.enc

  let action_counts r =
    Array.to_list (Array.map2 (fun l c -> (l, c)) r.labels r.counts)

  let dead_actions r =
    List.filter_map (fun (l, c) -> if c = 0 then Some l else None) (action_counts r)

  let config_ids r cid = Enc.config_ids r.table cid
  let states_of_ids enc ids = Array.mapi (fun p id -> Enc.state enc p id) ids

  let obs_of_states h sts =
    Array.init (Array.length sts) (fun p -> Sys.observe h sts p)

  let states_of_config r cid = states_of_ids r.enc (config_ids r cid)
  let domain_index r p s = Enc.find r.enc p s
  let domain_state r p id = Enc.state r.enc p id
  let field r cid f = Bitpack.get r.layout r.recs cid f
  let par_mode r cid = field r cid f_mode - 1
  let par_sel r cid = field r cid f_sel
  let enabled_inout r cid = field r cid f_enabled
  let meets_mask r cid = field r cid f_meets

  let committee_waiting r cid =
    Obs.committee_waiting r.h (obs_of_states r.h (states_of_config r cid))

  (* [f] folded over the in+out edges of a processed [cid], in order. *)
  let fold_edges r cid f acc =
    let hi =
      if cid + 1 < r.processed then field r (cid + 1) f_estart else r.n_edges
    in
    Bitpack.fold_items r.edges ~width:r.ew (field r cid f_estart) hi f acc

  let succs_inout r cid =
    if cid >= r.processed then []
    else
      let n = H.n r.h in
      fold_edges r cid
        (fun e acc -> (e lsr (n + 1), e land ((1 lsl n) - 1)) :: acc)
        []

  let convening r src dst =
    let n = H.n r.h in
    (* 0: no transition to [dst] recorded; 1: each one convened; 2: one
       did not *)
    let seen =
      if src >= r.processed then 0
      else
        fold_edges r src
          (fun e seen ->
            if e lsr (n + 1) <> dst then seen
            else if (e lsr n) land 1 = 0 then 2
            else max seen 1)
          0
    in
    if seen = 0 then meets_mask r dst land lnot (meets_mask r src) <> 0
    else seen = 1

  let symmetry_order r =
    match r.grp with None -> 1 | Some g -> Symmetry.order g

  let quotient_path r cid =
    let rec up cid acc =
      let p = field r cid f_parent - 1 in
      if p < 0 then (cid, acc) else up p ((cid, p) :: acc)
    in
    up cid []

  (* Lift the stored quotient path to a concrete one, maintaining the
     accumulated element [hp] with concrete_i = hp · canonical_i: the
     stored (mode, sel) of each step is relative to the canonical parent,
     so the concrete selection is [hp.pi(sel)]; the canonicalizing witness
     [w] of the recomputed raw successor updates [hp ← hp ∘ w⁻¹]. *)
  let lifted r cid =
    let root, chain = quotient_path r cid in
    let root_ids = config_ids r root in
    match r.grp with
    | None ->
        ( root_ids,
          List.map
            (fun (c, _) -> (par_mode r c, Bitpack.bits_list (par_sel r c)))
            chain,
          None )
    | Some grp ->
        let hp = ref grp.Symmetry.elems.(0) in
        let steps =
          List.map
            (fun (child, parent) ->
              let mode = par_mode r child
              and sel = par_sel r child in
              let raw = r.raw_step (config_ids r parent) mode sel in
              let w =
                if Symmetry.in_domain grp raw then
                  let _, gi = Symmetry.canonical grp raw in
                  grp.Symmetry.elems.(gi)
                else grp.Symmetry.elems.(0)
              in
              let csel = ref 0 in
              let pi = (!hp).Symmetry.pi in
              for p = 0 to Array.length pi - 1 do
                if sel land (1 lsl p) <> 0 then
                  csel := !csel lor (1 lsl pi.(p))
              done;
              hp := Symmetry.compose !hp (Symmetry.invert w);
              (mode, Bitpack.bits_list !csel))
            chain
        in
        (root_ids, steps, Some !hp)

  let path_to r cid =
    let root, steps, _ = lifted r cid in
    (root, steps)

  let lift_selection r cid sel =
    match lifted r cid with
    | _, _, None -> sel
    | _, _, Some hp -> List.sort compare (List.map (fun p -> hp.Symmetry.pi.(p)) sel)

  let explore ?(max_configs = 1_500_000) ?(roots = `Domain)
      ?(stop_on_first = false) ?on_progress ?tables ?symmetry h =
    let n = H.n h and m = H.m h in
    if n > 16 then failwith "Mc.Explore: more than 16 processes unsupported";
    if m > 62 then failwith "Mc.Explore: more than 62 committees unsupported";
    let nmodes = Array.length mode_inputs in
    (* Each width derives from n, m and [max_configs], which cannot pass
       the ids {!Encode} hands out: a parent cid + 1 is at most
       [max_configs], and a configuration records at most [2^n - 1] in+out
       edges. *)
    let max_configs = max 0 (min max_configs ((1 lsl Encode.id_bits) - 1)) in
    let layout =
      Bitpack.layout
        [| Bitpack.width max_configs; Bitpack.width nmodes; n; n; m;
           Bitpack.width (max_configs * ((1 lsl n) - 1)) |]
    in
    (* adopt the tables' interner so their packed successor ids are valid
       here; a fresh one is only built when running closure-only *)
    let enc = match tables with Some tb -> Tb.enc tb | None -> Enc.create h in
    let actions = Array.of_list (Sys.actions h) in
    let nact = Array.length actions in
    let grp =
      match symmetry with
      | Some g when Symmetry.order g > 1 && g.Symmetry.complete ->
          Array.iteri
            (fun p s ->
              if Array.length s <> Enc.domain_count enc p then
                failwith "Mc.Explore: symmetry group domains do not match")
            g.Symmetry.elems.(0).Symmetry.sigma;
          Some g
      | _ -> None
    in
    (* The step of [ctx.self] over the guard closures, for a configuration
       the tables do not cover: the action [Model.priority] picks ([-1] for
       none), whose interned successor goes to [succ.(ctx.self)]. *)
    let closure_step ctx succ =
      let i = Model.priority actions ctx in
      if i >= 0 then
        succ.(ctx.Model.self) <-
          Enc.intern enc ctx.Model.self (actions.(i).Model.apply ctx);
      i
    in
    let raw_step cfg mode selmask =
      let sts = states_of_ids enc cfg in
      let read p = sts.(p) in
      let inputs = mode_inputs.(mode) in
      let out = Array.copy cfg in
      for p = 0 to n - 1 do
        if selmask land (1 lsl p) <> 0 then begin
          let e =
            match tables with
            | Some tb -> Tb.entry tb ~mode ~proc:p cfg
            | None -> -2
          in
          if e >= 0 then out.(p) <- Tables.entry_succ e
          else if e = -2 then
            ignore (closure_step { Model.h; inputs; read; self = p } out)
        end
      done;
      out
    in
    let r =
      { h; enc;
        table = Enc.table enc;
        layout;
        recs = Vec.create ();
        ew = Bitpack.width (max 0 (max_configs - 1)) + 1 + n;
        edges = Vec.create ();
        n_edges = 0;
        processed = 0;
        counts = Array.make nact 0;
        labels = Array.map (fun (a : _ Model.action) -> a.Model.label) actions;
        grp;
        raw_step;
        transitions = 0;
        viols = [];
        complete_ = false }
    in
    let conflicts =
      List.concat
        (List.init m (fun e1 ->
             List.concat
               (List.init e1 (fun e2 ->
                    if H.conflicting h e1 e2 then [ (e1, e2) ] else []))))
    in
    let capped = ref false in
    let stop = ref false in
    (* The configuration id of [cfg], storing it if new; [-1] once the
       store is full.  Ids are handed out in discovery order, which is
       also the BFS order: the queue is the range of stored but
       unprocessed ids. *)
    let discover ~mode ~sel ~parent cfg =
      let cnt = Enc.table_count r.table in
      if cnt >= max_configs then begin
        capped := true;
        -1
      end
      else
        let cid = Enc.find_or_add r.table cfg in
        if cid = cnt then begin
          let obs = obs_of_states h (states_of_ids enc cfg) in
          let mm = ref 0 in
          for e = 0 to m - 1 do
            if Obs.meets h obs e then mm := !mm lor (1 lsl e)
          done;
          Bitpack.push layout r.recs;
          Bitpack.set layout r.recs cid f_parent (parent + 1);
          Bitpack.set layout r.recs cid f_mode (mode + 1);
          Bitpack.set layout r.recs cid f_sel sel;
          Bitpack.set layout r.recs cid f_meets !mm;
          List.iter
            (fun (e1, e2) ->
              if !mm land (1 lsl e1) <> 0 && !mm land (1 lsl e2) <> 0 then begin
                r.viols <-
                  { rule = "exclusion";
                    detail =
                      Printf.sprintf
                        "conflicting committees e%d and e%d meet simultaneously"
                        e2 e1;
                    source = cid;
                    mode = -1;
                    selected = [] }
                  :: r.viols;
                if stop_on_first then stop := true
              end)
            conflicts
        end;
        cid
    in
    let discover_root cfg = ignore (discover ~mode:(-1) ~sel:0 ~parent:(-1) cfg) in
    (* quotient mode: the orbit representative and a candidate image *)
    let rep = Array.make n 0 and cand = Array.make n 0 in
    (* lazily streamed roots; in quotient mode the odometer streams every
       orbit's lex-least member itself, so the others are skipped before
       they are copied *)
    let root_cursor = Array.make n 0 in
    let domain_sizes = Array.init n (Enc.domain_count enc) in
    let roots_exhausted = ref false in
    let adv () =
      if Tables.advance root_cursor domain_sizes (n - 1) < 0 then
        roots_exhausted := true
    in
    let rec next_domain_root () =
      if !roots_exhausted then None
      else
        match grp with
        | Some g when Symmetry.canonical_into g root_cursor ~rep ~cand <> 0 ->
          adv ();
          next_domain_root ()
        | _ ->
          let cfg = Array.copy root_cursor in
          adv ();
          Some cfg
    in
    let pending_roots =
      ref (match roots with `States l -> l | `Domain -> [])
    in
    let next_root () =
      match roots with
      | `Domain -> next_domain_root ()
      | `States _ -> (
        match !pending_roots with
        | [] -> None
        | sts :: rest ->
          pending_roots := rest;
          Some (Array.init n (fun p -> Enc.intern enc p sts.(p))))
    in
    (* Per input mode, the step each process takes: its action ([-1]:
       none), its interned successor and, over the guard closures, the
       input predicates its scan and statement consulted as mode bits
       (bit 0 [request_in], bit 1 [request_out], the bits of
       {!Model.mode_of} that index [mode_inputs]).  The recording
       contexts read the configuration being processed, [cur]. *)
    let act = Array.init nmodes (fun _ -> Array.make n (-1)) in
    let succ = Array.init nmodes (fun _ -> Array.make n 0) in
    let consulted = Array.init nmodes (fun _ -> Array.make n 0) in
    let enabled = Array.make nmodes 0 in
    let cur = ref [||] in
    let inputs_read = ref 0 in
    let ctxs =
      let read q = !cur.(q) in
      Array.map
        (fun (base : Model.inputs) ->
          let inputs =
            { Model.request_in =
                (fun q ->
                  inputs_read := !inputs_read lor 1;
                  base.Model.request_in q);
              request_out =
                (fun q ->
                  inputs_read := !inputs_read lor 2;
                  base.Model.request_out q) }
          in
          Array.init n (fun p -> { Model.h; inputs; read; self = p }))
        mode_inputs
    in
    (* The step of [p] under [mode] over the guard closures.  Guards and
       statements are deterministic in what they read, so an earlier mode
       agreeing on every input predicate its scan consulted already took
       it. *)
    let closure_scan mode p =
      let from = ref (-1) in
      for m' = mode - 1 downto 0 do
        if (mode lxor m') land consulted.(m').(p) = 0 then from := m'
      done;
      let m' = !from in
      if m' >= 0 then begin
        act.(mode).(p) <- act.(m').(p);
        succ.(mode).(p) <- succ.(m').(p);
        consulted.(mode).(p) <- consulted.(m').(p)
      end
      else begin
        inputs_read := 0;
        act.(mode).(p) <- closure_step ctxs.(mode).(p) succ.(mode);
        consulted.(mode).(p) <- !inputs_read
      end
    in
    (* Modes [m1] and [m2] enable the same processes with the same
       successors, so every subset steps to the same configuration. *)
    let same_step m1 m2 =
      let en = enabled.(m1) in
      let same = ref (en = enabled.(m2)) in
      for p = 0 to n - 1 do
        if en land (1 lsl p) <> 0 && succ.(m1).(p) <> succ.(m2).(p) then
          same := false
      done;
      !same
    in
    (* Per mode and per enabled subset, in enumeration order: destination
       id, meets mask of the raw successor and Spec verdicts.  A mode whose
       step repeats an earlier mode's reads the destinations and meets
       masks of the first such mode ([ds]); its transitions repeat the
       verdicts of the first such mode that agrees on RequestOut ([vs]),
       since Spec judges from (before, after, [request_out]) alone.  The
       slabs grow to the most subsets any configuration enables. *)
    let dsts = Array.make nmodes [||] and ams = Array.make nmodes [||] in
    let vios = Array.make nmodes [||] in
    let reserve mode k =
      if Array.length dsts.(mode) < k then begin
        let k = max k (2 * Array.length dsts.(mode)) in
        dsts.(mode) <- Array.make k 0;
        ams.(mode) <- Array.make k 0;
        vios.(mode) <- Array.make k []
      end
    in
    let rec subsets en = if en = 0 then 1 else 2 * subsets (en land (en - 1)) in
    let scratch = Array.make n 0 in
    (* per process, the row code of its cell in the configuration being
       processed: one table lookup serves every mode *)
    let codes = Array.make n (-1) in
    (* [scratch] := the raw successor of [cfg] when [s] steps under [mode]. *)
    let step_into cfg mode s =
      Array.blit cfg 0 scratch 0 n;
      for p = 0 to n - 1 do
        if s land (1 lsl p) <> 0 then scratch.(p) <- succ.(mode).(p)
      done
    in
    let rec record cid mode s = function
      | [] -> ()
      | (v : Spec.violation) :: rest ->
        r.viols <-
          { rule = v.Spec.rule;
            detail = v.Spec.detail;
            source = cid;
            mode;
            selected = Bitpack.bits_list s }
          :: r.viols;
        if stop_on_first then stop := true;
        record cid mode s rest
    in
    let process cid =
      assert (r.processed = cid);
      r.processed <- cid + 1;
      Bitpack.set layout r.recs cid f_estart r.n_edges;
      let cfg = config_ids r cid in
      let sts = states_of_ids enc cfg in
      cur := sts;
      let before_obs = lazy (obs_of_states h sts) in
      let bm = meets_mask r cid in
      (match tables with
      | Some tb ->
        for p = 0 to n - 1 do
          codes.(p) <- Tb.row_code tb ~proc:p cfg
        done
      | None -> ());
      for mode = 0 to nmodes - 1 do
        if not !stop then begin
          let acts = act.(mode) in
          let en = ref 0 in
          for p = 0 to n - 1 do
            let e =
              match tables with
              | Some tb -> Tb.entry_of_code tb ~proc:p ~code:codes.(p) ~mode
              | None -> -2
            in
            if e >= 0 then begin
              acts.(p) <- Tables.entry_act e;
              succ.(mode).(p) <- Tables.entry_succ e
            end
            else if e = -1 then acts.(p) <- -1
            else closure_scan mode p;
            if acts.(p) >= 0 then en := !en lor (1 lsl p)
          done;
          let en = !en in
          enabled.(mode) <- en;
          if mode = inout_mode then Bitpack.set layout r.recs cid f_enabled en;
          let ds = ref mode and vs = ref mode in
          for m' = mode - 1 downto 0 do
            if same_step m' mode then begin
              ds := m';
              if (m' lxor mode) land 2 = 0 then vs := m'
            end
          done;
          let ds = !ds and vs = !vs in
          if en <> 0 then begin
            reserve mode (subsets en - 1);
            let dst_of = dsts.(ds) and am_of = ams.(ds) in
            let sub = ref en and j = ref 0 in
            let continue_ = ref true in
            while !continue_ && (not !stop) && not !capped do
              let s = !sub and i = !j in
              let dst =
                if ds <> mode then
                  (* the store caps exactly where discovery would *)
                  if Enc.table_count r.table >= max_configs then begin
                    capped := true;
                    -1
                  end
                  else dst_of.(i)
                else begin
                  step_into cfg mode s;
                  (* quotient mode: store the lex-least orbit
                     representative, but judge the RAW transition — the
                     witness's inverse edge permutation pulls the canonical
                     meets mask back to the raw successor's.  Escapee
                     configurations bypass canonicalization (their
                     transport is undefined) and are explored concretely,
                     exactly as without symmetry. *)
                  let d =
                    match grp with
                    | Some g when Symmetry.in_domain g scratch ->
                      let gi = Symmetry.canonical_into g scratch ~rep ~cand in
                      let d = discover ~mode ~sel:s ~parent:cid rep in
                      if d >= 0 then
                        am_of.(i) <-
                          (if gi = 0 then meets_mask r d
                           else
                             Symmetry.inverse_map_mask
                               g.Symmetry.elems.(gi).Symmetry.eperm
                               (meets_mask r d));
                      d
                    | _ ->
                      let d = discover ~mode ~sel:s ~parent:cid scratch in
                      if d >= 0 then am_of.(i) <- meets_mask r d;
                      d
                  in
                  dst_of.(i) <- d;
                  d
                end
              in
              if dst >= 0 then begin
                r.transitions <- r.transitions + 1;
                for p = 0 to n - 1 do
                  if s land (1 lsl p) <> 0 then
                    r.counts.(acts.(p)) <- r.counts.(acts.(p)) + 1
                done;
                let am = am_of.(i) in
                if mode = inout_mode then begin
                  let conv = if am land lnot bm <> 0 then 1 else 0 in
                  Bitpack.add_item r.edges ~width:r.ew r.n_edges
                    ((((dst lsl 1) lor conv) lsl n) lor s);
                  r.n_edges <- r.n_edges + 1
                end;
                if am <> bm then
                  if vs <> mode then record cid mode s vios.(vs).(i)
                  else begin
                    (* a meeting convened or broke up: judge the raw
                       transition with the runtime monitor, before as
                       initial (§2.5) *)
                    if ds <> mode then step_into cfg mode s;
                    let before = Lazy.force before_obs in
                    let after = obs_of_states h (states_of_ids enc scratch) in
                    let spec = Spec.create h ~initial:before in
                    Spec.on_step spec ~step:0
                      ~request_out:mode_inputs.(mode).Model.request_out ~before
                      ~after;
                    let found = Spec.violations spec in
                    vios.(mode).(i) <- found;
                    record cid mode s found
                  end
              end;
              incr j;
              let nxt = (s - 1) land en in
              if nxt = 0 then continue_ := false else sub := nxt
            done
          end
        end
      done;
      if r.processed land 0x3fff = 0 then
        Option.iter
          (fun f ->
            f ~configs:(Enc.table_count r.table) ~transitions:r.transitions)
          on_progress
    in
    let rec loop () =
      if !stop || !capped then ()
      else if r.processed < n_configs r then begin
        process r.processed;
        loop ()
      end
      else
        match next_root () with
        | Some cfg ->
          (match (grp, roots) with
          | Some g, `States _ when Symmetry.in_domain g cfg ->
            discover_root (fst (Symmetry.canonical g cfg))
          | _ -> discover_root cfg);
          loop ()
        | None -> r.complete_ <- true
    in
    loop ();
    r
end

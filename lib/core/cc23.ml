(** Algorithm 2 (paper §5): snap-stabilizing 2-phase committee coordination
    with {e Professor Fairness} ([CC2 ∘ TC]), and its §5.4 modification
    [CC3 ∘ TC] satisfying {e Committee Fairness}.

    Both assume professors wait for meetings infinitely often, so
    [RequestIn] and the [idle] status are implicit (§5): a process is always
    [looking] when not engaged.  CC3 differs from CC2 in a single action:
    instead of pointing at a smallest incident committee ([MinEdges]), the
    token holder selects its incident committees sequentially (round-robin
    cursor advanced on each [Step4]).

    Deliberate deviation (documented in DESIGN.md): the paper's
    [TPointingNodes] macro literally collects {e all} members of
    token-pointing committees, which can leave [Step12]'s statement
    undefined; we take the {e witness} set — the processes [q] with
    [Pq = ε ∧ Tq ∧ Sq = looking] — which coincides with the literal reading
    in every single-token configuration. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
open Cc_common

type cc = {
  s : status;  (** [Sp] ∈ [{looking, waiting, done}] *)
  ptr : int option;  (** [Pp] *)
  tf : bool;  (** [Tp] *)
  lk : bool;  (** [Lp] *)
  cur : int;  (** CC3's round-robin cursor over [Ep] (unused by CC2) *)
  disc : int;  (** essential discussions performed *)
}

module type VARIANT = sig
  val committee_fair : bool
  (** [false] = CC2 (MinEdges target), [true] = CC3 (sequential target). *)

  val non_token_convening : bool
  (** [true] in the paper's algorithms: committees without the token may
      convene through [Step13]/[Step14].  [false] yields the circulating-
      token baseline of Bagrodia [3] discussed in §6 (only the token holder
      initiates meetings), used by the related-work benches. *)

  val release_when_useless : bool
  (** [false] in the paper's CC2/CC3: the token holder {e retains} the token
      until it participates in a meeting — the very mechanism that buys
      fairness (§3.2).  [true] grafts CC1's release policy ([Token2]) onto
      the algorithm: the holder gives the token up whenever it cannot
      immediately be helped.  The ablation benches show this single switch
      forfeits Professor Fairness. *)
end

module Cc2_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = true
  let release_when_useless = false
end

module Cc3_variant : VARIANT = struct
  let committee_fair = true
  let non_token_convening = true
  let release_when_useless = false
end

module Token_only_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = false
  let release_when_useless = false
end

module Eager_release_variant : VARIANT = struct
  let committee_fair = false
  let non_token_convening = true
  let release_when_useless = true
end

module Make (T : Snapcc_token.Layer.S) (V : VARIANT) (P : PARAMS) :
sig
  include Model.ALGO with type state = cc * T.state

  val cc : state -> cc
  val correct : H.t -> read:(int -> state) -> int -> bool
  val locked : H.t -> read:(int -> state) -> int -> bool
end = struct
  type state = cc * T.state

  (* every variant switch and the edge choice show in the name, the way
     CC1's defect injections do: no two instantiations share one *)
  let name =
    Printf.sprintf "%s%s%s%s∘%s"
      (if V.committee_fair then "CC3" else "CC2")
      (if V.non_token_convening then "" else "[token-only]")
      (if V.release_when_useless then "[eager-release]" else "")
      P.tag T.name

  let cc (c, _) = c

  let pp_state ppf ((c, t) : state) =
    Format.fprintf ppf "S=%a P=%s T=%b L=%b cur=%d disc=%d | %a" pp_status c.s
      (match c.ptr with None -> "⊥" | Some e -> "e" ^ string_of_int e)
      c.tf c.lk c.cur c.disc T.pp_state t

  let equal_state (({ s; ptr; tf; lk; cur; disc }, t1) : state) (c2, t2) =
    s = c2.s && Option.equal Int.equal ptr c2.ptr && tf = c2.tf && lk = c2.lk
    && cur = c2.cur && disc = c2.disc && T.equal_state t1 t2

  let token h read p = T.has_token h ~read ~get:snd p
  let release h read p = T.release h ~read ~get:snd p
  let c read p = fst (read p)

  (* ---- macros of Algorithm 2, as {!Cc_common} set kernels ---- *)

  (* member conditions, on the composed state of a member of [ε] *)
  let free (((cq : cc), _) : state) _ = cq.s = Looking && (not cq.lk) && not cq.tf
  let looking (((cq : cc), _) : state) _ = cq.s = Looking
  let anyone (_ : state) _ = true

  (* a token-pointing witness of [ε]: a member visibly claiming [ε] with
     the token.  The deliberate deviation above: [TPointingNodes] is the
     set of witnesses, [TPointingEdges] the committees they point at. *)
  let tpointing (((cq : cc), _) : state) e = points_at cq.ptr e && cq.tf && cq.s = Looking

  (* [|FreeEdges(p)|] and [ε ∈ FreeEdges(p)] *)
  let free_count h read p = count_edges h read p free
  let free_edge h read p e = mem (H.incident h p) e && all_members h read e free

  (* [max(FreeNodes(p))], [-1] when empty *)
  let free_max h read p = max_member h read p free anyone

  (* [max(TPointingNodes(p))], [-1] when empty; reads every member of every
     committee of [Ep] *)
  let tpointing_max h read p = max_member h read p anyone tpointing

  (* [ε ∈ TPointingEdges(p)] *)
  let tpointing_edge h read p e = mem (H.incident h p) e && some_member h read e tpointing

  (* CC3: the committee currently selected by the round-robin cursor *)
  let sequential_edge h read p =
    let incident = H.incident h p in
    incident.(((c read p).cur mod Array.length incident + Array.length incident)
              mod Array.length incident)

  (* ---- predicates of Algorithm 2 ---- *)

  let locked_pred h read p = tpointing_max h read p >= 0

  let ready_member (((cq : cc), _) : state) e =
    points_at cq.ptr e && (cq.s = Looking || cq.s = Waiting)

  let ready h read p = some_edge h read p ready_member

  let meeting_member (((cq : cc), _) : state) e =
    points_at cq.ptr e && (cq.s = Waiting || cq.s = Done)

  let meeting h read p = some_edge h read p meeting_member

  let not_waiting_on (((cq : cc), _) : state) e =
    (not (points_at cq.ptr e)) || cq.s <> Waiting

  let leave_meeting h read p =
    let cp = c read p in
    match cp.ptr with
    | Some e -> cp.s = Done && mem (H.incident h p) e && all_members h read e not_waiting_on
    | None -> false

  let local_max h read p = free_max h read p = p

  let max_to_free_edge h read p =
    V.non_token_convening
    && (not (token h read p))
    && (not (locked_pred h read p))
    && free_count h read p > 0
    && local_max h read p
    && (not (ready h read p))
    && (match (c read p).ptr with None -> true | Some e -> not (free_edge h read p e))

  let join_local_max h read p =
    V.non_token_convening
    && (not (token h read p))
    && (not (locked_pred h read p))
    && free_count h read p > 0
    && (not (local_max h read p))
    && (not (ready h read p))
    &&
    let leader = free_max h read p in
    leader >= 0
    &&
    match (c read leader).ptr with
    | Some e -> free_edge h read p e && not (points_at (c read p).ptr e)
    | None -> false

  let token_holder_to_edge h read p =
    token h read p
    && (c read p).s = Looking
    && (not (ready h read p))
    &&
    if V.committee_fair then not (points_at (c read p).ptr (sequential_edge h read p))
    else
      match (c read p).ptr with
      | None -> true
      | Some e -> not (mem (H.min_edges h p) e)

  let join_token_holder h read p =
    (not (token h read p))
    && (c read p).s = Looking
    && (not (ready h read p))
    && locked_pred h read p
    && (match (c read p).ptr with
        | None -> true
        | Some e -> not (tpointing_edge h read p e))

  (* CC1's Useless predicate transplanted for the eager-release ablation:
     no incident committee has all its members looking. *)
  let useless h read p =
    token h read p
    && (c read p).s = Looking
    && not (some_edge h read p looking)

  let correct h ~read p =
    let cp = c read p in
    (cp.s <> Waiting || ready h read p || meeting h read p)
    && (cp.s <> Done || meeting h read p || leave_meeting h read p)

  let locked h ~read p = locked_pred h read p

  (* ---- actions, in the paper's code order (last = highest priority) ---- *)

  let cc_actions h : state Model.action list =
    let rd (ctx : state Model.ctx) = ctx.Model.read in
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let me ctx = c (rd ctx) (self ctx) in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Lock";
        guard = (fun ctx -> locked_pred h (rd ctx) (self ctx) <> (me ctx).lk);
        apply =
          (fun ctx -> ({ (me ctx) with lk = locked_pred h (rd ctx) (self ctx) }, tc ctx)) };
      { Model.label = "Step11";
        guard = (fun ctx -> token_holder_to_edge h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let e =
              if V.committee_fair then sequential_edge h (rd ctx) (self ctx)
              else pick P.prefer h (H.min_edges h (self ctx))
            in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step12";
        guard = (fun ctx -> join_token_holder h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let read = rd ctx in
            let w = tpointing_max h read (self ctx) in
            if w >= 0 then ({ (me ctx) with ptr = (c read w).ptr }, tc ctx)
            else (me ctx, tc ctx)) };
      { Model.label = "Step13";
        guard = (fun ctx -> max_to_free_edge h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let e = choose P.prefer h (rd ctx) (self ctx) free in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step14";
        guard = (fun ctx -> join_local_max h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let read = rd ctx in
            let leader = free_max h read (self ctx) in
            if leader >= 0 then ({ (me ctx) with ptr = (c read leader).ptr }, tc ctx)
            else (me ctx, tc ctx)) };
      { Model.label = "Token2";
        guard =
          (fun ctx ->
            V.release_when_useless && useless h (rd ctx) (self ctx));
        apply =
          (fun ctx -> ({ (me ctx) with tf = false }, release h (rd ctx) (self ctx))) };
      { Model.label = "Token";
        guard = (fun ctx -> token h (rd ctx) (self ctx) <> (me ctx).tf);
        apply = (fun ctx -> ({ (me ctx) with tf = token h (rd ctx) (self ctx) }, tc ctx)) };
      { Model.label = "Step2";
        guard = (fun ctx -> ready h (rd ctx) (self ctx) && (me ctx).s = Looking);
        apply = (fun ctx -> ({ (me ctx) with s = Waiting }, tc ctx)) };
      { Model.label = "Step3";
        guard = (fun ctx -> meeting h (rd ctx) (self ctx) && (me ctx).s = Waiting);
        apply =
          (fun ctx -> ({ (me ctx) with s = Done; disc = (me ctx).disc + 1 }, tc ctx)) };
      { Model.label = "Step4";
        guard =
          (fun ctx ->
            leave_meeting h (rd ctx) (self ctx)
            && ctx.Model.inputs.Model.request_out (self ctx));
        apply =
          (fun ctx ->
            let tc' =
              if token h (rd ctx) (self ctx) then release h (rd ctx) (self ctx)
              else tc ctx
            in
            let cur = if V.committee_fair then (me ctx).cur + 1 else (me ctx).cur in
            ({ (me ctx) with s = Looking; ptr = None; tf = false; cur }, tc')) };
    ]

  let stab_actions h : state Model.action list =
    let rd (ctx : state Model.ctx) = ctx.Model.read in
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let me ctx = c (rd ctx) (self ctx) in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Stab";
        guard = (fun ctx -> not (correct h ~read:(rd ctx) (self ctx)));
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
    ]

  (* Fair composition by priorities: token-layer internals above the routine
     committee actions, Stab on top (Corollary 5: Correct within a round). *)
  let actions h =
    cc_actions h
    @ T.internal_actions h ~get:snd ~set:(fun (cc, _) tc -> (cc, tc))
    @ stab_actions h

  let init h =
    let tc_init = T.init h in
    fun p ->
      ({ s = Looking; ptr = None; tf = false; lk = false; cur = 0; disc = 0 },
       tc_init p)

  let random_init h rng p =
    let statuses = [| Looking; Waiting; Done |] in
    let incident = H.incident h p in
    let ptr =
      if Random.State.bool rng then None
      else Some incident.(Random.State.int rng (Array.length incident))
    in
    ( { s = statuses.(Random.State.int rng 3);
        ptr;
        tf = Random.State.bool rng;
        lk = Random.State.bool rng;
        cur = Random.State.int rng (max 1 (Array.length incident));
        disc = 0 },
      T.random_init h rng p )

  let observe h states p =
    let read = Array.get states in
    let cp = c read p in
    Obs.make ~pointer:cp.ptr ~token_flag:cp.tf ~locked:cp.lk
      ~has_token:(token h read p) ~discussions:cp.disc
      (to_obs_status cp.s)
end

(** CC2 with the default edge choice. *)
module Cc2_std (T : Snapcc_token.Layer.S) = Make (T) (Cc2_variant) (Default_params)

(** CC3 with the default edge choice. *)
module Cc3_std (T : Snapcc_token.Layer.S) = Make (T) (Cc3_variant) (Default_params)

(** The §6 circulating-token baseline (only token holders convene). *)
module Token_only_std (T : Snapcc_token.Layer.S) =
  Make (T) (Token_only_variant) (Default_params)

(** Ablation: CC2 with CC1's eager token release — fairness lost (§3.2). *)
module Eager_release_std (T : Snapcc_token.Layer.S) =
  Make (T) (Eager_release_variant) (Default_params)

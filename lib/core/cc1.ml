(** Algorithm 1 (paper §4): snap-stabilizing 2-phase committee coordination
    with {e Maximal Concurrency}, composed with a token layer [T] by fair
    composition ([CC1 ∘ TC]).

    The transcription is literal: macros, predicates and actions carry the
    paper's names, actions are listed in the paper's code order (an action
    appearing later has higher priority, §2.2), and the token layer's
    internal stabilization actions are appended after them — they are
    self-disabling, which realizes the fair composition.

    The only liberty is the don't-care choice "[ε such that ε ∈ FreeEdges]"
    in [Step21], delegated to {!Cc_common.PARAMS}. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
open Cc_common

type cc = {
  s : status;  (** [Sp] *)
  ptr : int option;  (** [Pp] (committee edge id, [None] = ⊥) *)
  tf : bool;  (** [Tp], the mirrored token flag *)
  disc : int;  (** essential discussions performed (observability) *)
}

(** Deliberate defects, used to validate the model checker ([lib/mc]): a
    verifier that never finds anything proves nothing.  [Intact] is the
    paper's algorithm. *)
module type BREAK = sig
  val invert_priorities : bool
  (** Reverse the action list, turning the paper's priority order (§2.2)
      upside down: [Stab1]/[Stab2] drop from the highest priority to the
      lowest, [Step1] climbs to the top. *)

  val unchecked_ready : bool
  (** Transcription typo in the [Ready] predicate: drop the
      "[Sq ∈ {looking, waiting}]" conjunct and only require every member to
      point at the committee — which lets a meeting convene around a
      professor stuck in [done] from a corrupted initial configuration. *)
end

module Intact : BREAK = struct
  let invert_priorities = false
  let unchecked_ready = false
end

(** The result signature shared by every instantiation. *)
module type S = sig
  type token_state

  include Model.ALGO with type state = cc * token_state

  val cc : state -> cc
  val correct : H.t -> read:(int -> state) -> int -> bool
  (** The [Correct(p)] predicate, exposed for the closure tests (Lemma 3). *)
end

module Make_gen (T : Snapcc_token.Layer.S) (P : PARAMS) (B : BREAK) :
  S with type token_state = T.state = struct
  type token_state = T.state
  type state = cc * T.state

  let name =
    Printf.sprintf "CC1%s%s%s∘%s"
      (if B.invert_priorities then "[rev-prio]" else "")
      (if B.unchecked_ready then "[unchecked-ready]" else "")
      P.tag T.name

  let cc (c, _) = c

  let pp_state ppf ((c, t) : state) =
    Format.fprintf ppf "S=%a P=%s T=%b disc=%d | %a" pp_status c.s
      (match c.ptr with None -> "⊥" | Some e -> "e" ^ string_of_int e)
      c.tf c.disc T.pp_state t

  let equal_state (({ s; ptr; tf; disc }, t1) : state) (c2, t2) =
    s = c2.s && Option.equal Int.equal ptr c2.ptr && tf = c2.tf && disc = c2.disc
    && T.equal_state t1 t2

  (* [Token(p)]: input predicate evaluated on the token layer. *)
  let token h read p = T.has_token h ~read ~get:snd p
  let release h read p = T.release h ~read ~get:snd p
  let c read p = fst (read p)

  (* ---- macros of Algorithm 1, as {!Cc_common} set kernels ---- *)

  (* member conditions, on the composed state of a member of [ε] *)
  let looking (((cq : cc), _) : state) _ = cq.s = Looking
  let flagged (((cq : cc), _) : state) _ = cq.tf
  let anyone (_ : state) _ = true

  (* [|FreeEdges(p)|] and [ε ∈ FreeEdges(p)] *)
  let free_count h read p = count_edges h read p looking
  let free_edge h read p e = mem (H.incident h p) e && all_members h read e looking

  (* [max(Cands(p))]: [Cands(p)] is [TFreeNodes(p)] unless empty, then
     [FreeNodes(p)]; [-1] when both are *)
  let cands_max h read p =
    let q = max_member h read p looking flagged in
    if q >= 0 then q else max_member h read p looking anyone

  (* ---- predicates of Algorithm 1 ---- *)

  let ready_member (((cq : cc), _) : state) e =
    points_at cq.ptr e && (B.unchecked_ready || cq.s = Looking || cq.s = Waiting)

  let ready h read p = some_edge h read p ready_member

  let local_max h read p = cands_max h read p = p

  let max_to_free_edge h read p =
    free_count h read p > 0
    && local_max h read p
    && (not (ready h read p))
    && (match (c read p).ptr with None -> true | Some e -> not (free_edge h read p e))

  let join_local_max h read p =
    free_count h read p > 0
    && (not (local_max h read p))
    && (not (ready h read p))
    &&
    let leader = cands_max h read p in
    leader >= 0
    &&
    match (c read leader).ptr with
    | Some e -> free_edge h read p e && not (points_at (c read p).ptr e)
    | None -> false

  let meeting_member (((cq : cc), _) : state) e =
    points_at cq.ptr e && (cq.s = Waiting || cq.s = Done)

  let meeting h read p = some_edge h read p meeting_member

  let left_member (((cq : cc), _) : state) e = (not (points_at cq.ptr e)) || cq.s = Done

  let leave_meeting h read p =
    match (c read p).ptr with
    | Some e -> mem (H.incident h p) e && all_members h read e left_member
    | None -> false

  let useless h read p =
    token h read p
    &&
    let cp = c read p in
    cp.s = Idle || (cp.s = Looking && free_count h read p = 0)

  let correct h ~read p =
    let cp = c read p in
    (cp.s <> Idle || Option.is_none cp.ptr)
    && (cp.s <> Waiting || ready h read p || meeting h read p)
    && (cp.s <> Done || meeting h read p || leave_meeting h read p)

  (* ---- actions, in the paper's code order (last = highest priority) ---- *)

  let cc_actions h : state Model.action list =
    let rd (ctx : state Model.ctx) = ctx.Model.read in
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let me ctx = c (rd ctx) (self ctx) in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Step1";
        guard = (fun ctx -> ctx.Model.inputs.Model.request_in (self ctx) && (me ctx).s = Idle);
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
      { Model.label = "Step21";
        guard = (fun ctx -> max_to_free_edge h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let e = choose P.prefer h (rd ctx) (self ctx) looking in
            ({ (me ctx) with ptr = Some e }, tc ctx)) };
      { Model.label = "Step22";
        guard = (fun ctx -> join_local_max h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            let read = rd ctx in
            let leader = cands_max h read (self ctx) in
            if leader >= 0 then ({ (me ctx) with ptr = (c read leader).ptr }, tc ctx)
            else (me ctx, tc ctx)) };
      { Model.label = "Token1";
        guard = (fun ctx -> token h (rd ctx) (self ctx) <> (me ctx).tf);
        apply = (fun ctx -> ({ (me ctx) with tf = token h (rd ctx) (self ctx) }, tc ctx)) };
      { Model.label = "Token2";
        guard = (fun ctx -> useless h (rd ctx) (self ctx));
        apply =
          (fun ctx ->
            ({ (me ctx) with tf = false }, release h (rd ctx) (self ctx))) };
      { Model.label = "Step31";
        guard = (fun ctx -> ready h (rd ctx) (self ctx) && (me ctx).s = Looking);
        apply = (fun ctx -> ({ (me ctx) with s = Waiting }, tc ctx)) };
      { Model.label = "Step32";
        guard = (fun ctx -> meeting h (rd ctx) (self ctx) && (me ctx).s = Waiting);
        apply =
          (fun ctx ->
            (* 〈EssentialDiscussion〉 then Sp := done *)
            ({ (me ctx) with s = Done; disc = (me ctx).disc + 1 }, tc ctx)) };
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
            ({ (me ctx) with s = Idle; ptr = None; tf = false }, tc')) };
    ]

  let stab_actions h : state Model.action list =
    let rd (ctx : state Model.ctx) = ctx.Model.read in
    let self (ctx : state Model.ctx) = ctx.Model.self in
    let me ctx = c (rd ctx) (self ctx) in
    let tc ctx = snd (ctx.Model.read ctx.Model.self) in
    [ { Model.label = "Stab1";
        guard =
          (fun ctx ->
            (not (correct h ~read:(rd ctx) (self ctx))) && (me ctx).s = Idle);
        apply = (fun ctx -> ({ (me ctx) with ptr = None }, tc ctx)) };
      { Model.label = "Stab2";
        guard =
          (fun ctx ->
            (not (correct h ~read:(rd ctx) (self ctx))) && (me ctx).s <> Idle);
        apply = (fun ctx -> ({ (me ctx) with s = Looking; ptr = None }, tc ctx)) };
    ]

  (* Fair composition by priorities: the token layer's self-disabling
     internal actions preempt the routine committee actions (so neither
     layer starves the other), but Stab1/Stab2 keep the paper's top
     priority — after at most one round every process is Correct forever
     (Corollary 3). *)
  let actions h =
    let tc_actions = T.internal_actions h ~get:snd ~set:(fun (cc, _) tc -> (cc, tc)) in
    let all = cc_actions h @ tc_actions @ stab_actions h in
    if B.invert_priorities then List.rev all else all

  let init h =
    let tc_init = T.init h in
    fun p -> ({ s = Idle; ptr = None; tf = false; disc = 0 }, tc_init p)

  let random_init h rng p =
    let statuses = [| Idle; Looking; Waiting; Done |] in
    let incident = H.incident h p in
    let ptr =
      if Random.State.bool rng then None
      else Some incident.(Random.State.int rng (Array.length incident))
    in
    ( { s = statuses.(Random.State.int rng 4);
        ptr;
        tf = Random.State.bool rng;
        disc = 0 },
      T.random_init h rng p )

  let observe h states p =
    let read = Array.get states in
    let cp = c read p in
    Obs.make ~pointer:cp.ptr ~token_flag:cp.tf ~has_token:(token h read p)
      ~discussions:cp.disc
      (to_obs_status cp.s)
end

module Make (T : Snapcc_token.Layer.S) (P : PARAMS) = Make_gen (T) (P) (Intact)

(** CC1 with the default edge choice. *)
module Std (T : Snapcc_token.Layer.S) = Make (T) (Default_params)

(** Broken variant: priority order inverted ([Stab] lowest, [Step1]
    highest).  The model checker's ground truth on whether CC1's safety
    closure survives a priority shuffle. *)
module Inverted_std (T : Snapcc_token.Layer.S) =
  Make_gen (T) (Default_params)
    (struct
      let invert_priorities = true
      let unchecked_ready = false
    end)

(** Broken variant: the [Ready] predicate ignores member statuses, letting
    committees convene around professors stuck in [done] — a guaranteed
    synchronization violation from suitably corrupted initial states. *)
module Unchecked_ready_std (T : Snapcc_token.Layer.S) =
  Make_gen (T) (Default_params)
    (struct
      let invert_priorities = false
      let unchecked_ready = true
    end)

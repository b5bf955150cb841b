(** The token-circulation module [TC] of the paper (§4.1, Property 1).

    The committee-coordination layer sees [TC] as a black box providing the
    [Token(p)] input predicate and the [ReleaseToken(p)] statement; [TC]
    additionally owns internal stabilization actions (leader election, tree
    maintenance, privilege forwarding) that the fair composition [CC ∘ TC]
    schedules alongside the committee actions.

    Property 1 requires that, once stabilized, (i) at most one process
    satisfies [Token(p)] at a time, and (ii) releasing makes every process
    hold the token infinitely often — provided releases keep happening,
    which the CC layers guarantee (CC1's [Token2]/[Step4]; CC2's Lemma 11). *)

module type S = sig
  type state

  val name : string
  val pp_state : Format.formatter -> state -> unit
  val equal_state : state -> state -> bool

  val init : Snapcc_hypergraph.Hypergraph.t -> int -> state
  (** Canonical initial state (a legitimate configuration with one token). *)

  val random_init :
    Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> state
  (** Arbitrary state over the whole domain (transient-fault outcome):
      several tokens, none, broken trees — the layer must recover. *)

  (* The layer's state is read as a component of a composed state ['s]:
     [get] projects it ([snd] under [CC ∘ TC], [Fun.id] standalone), so
     a composed guard needs no per-call projecting closure. *)

  val has_token :
    Snapcc_hypergraph.Hypergraph.t -> read:(int -> 's) -> get:('s -> state) ->
    int -> bool
  (** [Token(p)].  Only reads the states of [p] and of its neighbors. *)

  val release :
    Snapcc_hypergraph.Hypergraph.t -> read:(int -> 's) -> get:('s -> state) ->
    int -> state
  (** [ReleaseToken(p)]: the emulated action [T].  New local state of [p];
      identity when [p] does not actually hold a token. *)

  val internal_actions :
    Snapcc_hypergraph.Hypergraph.t -> get:('s -> state) ->
    set:('s -> state -> 's) -> 's Snapcc_runtime.Model.action list
  (** Stabilization and forwarding actions over the composed state
      ([set s t] replaces the layer component of [s] by [t]), in code
      order (last = highest priority).  Compositions append them {e after}
      the CC actions, giving them priority; they are all self-disabling,
      so the CC layer is never starved (fair composition, §2.2). *)

  val domain : Snapcc_hypergraph.Hypergraph.t -> int -> state list
  (** A finite per-process state domain for exhaustive model checking
      ([lib/mc]): the states snap-stabilization quantifies over.  Layers
      with a huge internal state space (the tree substrate) may return a
      documented sub-domain; the checker verifies closure under transitions
      and interns — and reports — any state outside the declared domain. *)

  val rename :
    Snapcc_hypergraph.Hypergraph.t -> pi:int array -> int -> state -> state
  (** Structural transport under the vertex permutation [pi]: the state of
      process [p], re-expressed as a state of process [pi.(p)] (vertex
      references mapped through [pi]).  This only {e proposes} a symmetry
      candidate — whether the transported layer really behaves identically
      is arbitrated later by exact table commutation
      ([Snapcc_statics.Symmetry]), so a best-effort transport is sound. *)

  val state_symmetries :
    Snapcc_hypergraph.Hypergraph.t -> (string * (int -> state -> state)) list
  (** Named {e internal} symmetry candidates: per-process state bijections
      (on {!domain}) that the layer believes commute with every action even
      under the identity vertex permutation — e.g. Dijkstra's counter gauge
      [v ↦ v+1 mod K] on the virtual ring.  Also subject to table
      commutation before being admitted. *)
end

(** A standalone [Model.ALGO] wrapper so a token layer can be run and tested
    in isolation: release is exposed as an always-ready action guarded by
    [has_token]. *)
module As_algo (T : S) : Snapcc_runtime.Model.ALGO with type state = T.state =
struct
  module Model = Snapcc_runtime.Model

  type state = T.state

  let name = T.name ^ "/standalone"
  let pp_state = T.pp_state
  let equal_state = T.equal_state
  let init = T.init
  let random_init = T.random_init

  (* [T] first (lowest priority): the self-disabling internal stabilization
     actions must preempt releases, mirroring the fair composition used by
     [CC ∘ TC] — otherwise a degenerate privilege (e.g. a root with a stale
     child list) could starve the stabilization layer. *)
  let actions h =
    { Model.label = "T";
      guard = (fun ctx -> T.has_token h ~read:ctx.Model.read ~get:Fun.id ctx.Model.self);
      apply = (fun ctx -> T.release h ~read:ctx.Model.read ~get:Fun.id ctx.Model.self) }
    :: T.internal_actions h ~get:Fun.id ~set:(fun _ s -> s)

  let observe h states p =
    let has_token = T.has_token h ~read:(Array.get states) ~get:Fun.id p in
    Snapcc_runtime.Obs.make ~has_token ~token_flag:has_token Snapcc_runtime.Obs.Looking
end

(** Exhaustive exploration of a {!System.S} under the daemon semantics of
    §2.2: from every configuration, under each of the four uniform input
    modes, every non-empty subset of the enabled processes may be selected,
    and each selected process executes its highest-priority enabled action
    against the pre-step configuration.

    Verification is {e from every state in the domain}, not just [init] —
    the snap-stabilization quantification (§2.5).  Roots are streamed
    lazily out of the domain product, and states are explored breadth
    first, so the parent pointers yield shortest counterexample prefixes.

    Safety is checked per transition by feeding the (before, after)
    observation pair through the existing runtime monitor
    ({!Snapcc_analysis.Spec}), with [initial = before]: this judges
    {b exclusion} and {b synchronization} on every reachable transition
    while exempting the discussion rules of meetings inherited from the
    (arbitrary) source state — exactly the per-state reading of §2.5.
    Exclusion is additionally checked on every {e configuration} as it is
    discovered.  The transition graph under the [in+out] mode is retained
    for the progress analysis ({!Fairness}).

    Each distinct input-mode behaviour of a configuration is computed
    once: a process's step is reused by a later mode that agrees on the
    input predicates it consulted, a mode with an earlier mode's enabled
    set and successors reuses its destinations, and a repeated transition
    under the same [RequestOut] reuses its verdicts.  Every transition is
    still counted, and recorded under its own mode. *)

type violation = {
  rule : string;  (** {!Snapcc_analysis.Spec} rule name, e.g. ["synchronization"] *)
  detail : string;
  source : int;  (** configuration id of the pre-step configuration *)
  mode : int;  (** input-mode index; [-1] for configuration-local findings *)
  selected : int list;  (** daemon selection (process indices) *)
}

val mode_inputs : Snapcc_runtime.Model.inputs array
(** The four uniform input modes: quiet, [RequestIn], [RequestOut], both. *)

val mode_name : int -> string
val inout_mode : int
(** Index of the in+out mode (the one the progress analysis runs under). *)

module Make (Sys : System.S) : sig
  type result

  val explore :
    ?max_configs:int ->
    ?roots:[ `Domain | `States of Sys.state array list ] ->
    ?stop_on_first:bool ->
    ?on_progress:(configs:int -> transitions:int -> unit) ->
    ?tables:Tables.Make(Sys).t ->
    ?symmetry:Symmetry.group ->
    Snapcc_hypergraph.Hypergraph.t ->
    result
  (** [explore h] runs to exhaustion of the domain product ([`Domain], the
      default) or of the set reachable from the given initial
      configurations ([`States]), up to [max_configs] (default 1.5M)
      stored configurations.  [stop_on_first] aborts at the first safety
      violation; [on_progress] is invoked every few ten-thousand processed
      configurations.

      [tables] switches guard evaluation to the packed fast path: per
      (mode, process) the chosen action and successor come from a
      {!Tables.Make.entry} lookup, falling back to the guard closures only
      where no entry is stored.  The tables' interner is adopted wholesale,
      so results are bit-for-bit the ones the closure path computes (modulo
      escapee interning order).

      [symmetry] (an {e admitted} group from the static analyzer,
      [Snapcc_statics.Symmetry]) switches to quotient exploration: only
      the lexicographically least representative of each orbit is stored,
      shrinking the state count by up to the group order.  Soundness rests
      on the admission proof — every element commutes with the step
      function and preserves the meeting observations — so safety is still
      judged on the {e raw} (pre-canonicalization) transitions, escapee
      configurations bypass canonicalization entirely, and {!path_to}
      transparently lifts quotient paths back to concrete replayable runs.
      A group with [complete = false] or order 1 is ignored. *)

  (** {2 Outcome} *)

  val complete : result -> bool
  (** Whether the state space was exhausted (false: capped or stopped
      early; the progress analysis is then unsound and must be skipped). *)

  val n_configs : result -> int
  val n_transitions : result -> int
  val violations : result -> violation list

  val escapees : result -> (int * Sys.state) list
  (** Closure failures of [`Domain] roots: reachable per-process states
      outside the declared domain (empty ⇔ the domain is closed). *)

  val product_size : result -> float
  val action_counts : result -> (string * int) list
  (** Executions per action label over all explored transitions. *)

  val dead_actions : result -> string list
  (** Actions never executed on any explored transition. *)

  (** {2 Configuration access} *)

  val config_ids : result -> int -> int array
  val states_of_config : result -> int -> Sys.state array
  val domain_index : result -> int -> Sys.state -> int option
  (** Dense id of a (canonicalized) per-process state, if interned. *)

  val domain_state : result -> int -> int -> Sys.state

  val path_to : result -> int -> int array * (int * int list) list
  (** [(root, steps)]: a shortest path from a root configuration (given as
      its per-process state ids) to the configuration, each step a
      (mode, selected processes) pair.  Under [?symmetry] the returned
      path is {e lifted}: root and selections are concrete (the engine
      replays them verbatim), and it ends in a configuration of the
      target's orbit — {!lift_selection} maps a selection made at the
      canonical configuration onto that endpoint. *)

  val lift_selection : result -> int -> int list -> int list
  (** [lift_selection r cid sel] re-expresses a daemon selection valid at
      canonical configuration [cid] at the endpoint of [path_to r cid]
      (the identity without [?symmetry]). *)

  val symmetry_order : result -> int
  (** Order of the group the exploration was quotiented by (1 = none). *)

  (** {2 The in+out transition graph (progress analysis)} *)

  val enabled_inout : result -> int -> int
  (** Bitmask of processes enabled under in+out (valid once processed). *)

  val succs_inout : result -> int -> (int * int) list
  (** [(destination, selected-mask)] transitions under in+out. *)

  val convening : result -> int -> int -> bool
  (** Whether the transitions recorded from [src] to [dst] convened a
      meeting — judged on the {e raw} transitions, which under
      [?symmetry] may differ from comparing the two canonical meets
      masks.  [false] as soon as one recorded raw transition convenes
      nothing (the conservative direction for livelock detection). *)

  val meets_mask : result -> int -> int
  (** Bitmask of committees meeting in the configuration. *)

  val committee_waiting : result -> int -> bool
  (** {!Snapcc_runtime.Obs.committee_waiting} of the configuration: the
      hypothesis of the progress property (§2.3). *)
end

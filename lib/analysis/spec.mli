(** Runtime verification of the committee-coordination specification
    (§2.3–§2.5): an online monitor fed with before/after observation pairs.

    Snap-stabilization semantics: the monitor judges every meeting that
    {e convenes} during the observed computation; meetings already in
    progress in the (possibly arbitrary) initial configuration are exempt
    from the discussion checks, exactly as §2.5 prescribes ("there is no
    guarantee for the meetings started during the transient faults"). *)

type violation = {
  step : int;
  rule : string;  (** "exclusion" | "synchronization" | "essential-discussion"
                      | "voluntary-discussion" | "meeting-integrity" *)
  detail : string;
}

type t

val create :
  ?telemetry:Snapcc_telemetry.Hub.t ->
  Snapcc_hypergraph.Hypergraph.t ->
  initial:Snapcc_runtime.Obs.t array ->
  t
(** With [telemetry], every recorded violation is also emitted as a
    [verdict] event on the hub. *)

val on_step :
  t ->
  step:int ->
  request_out:(int -> bool) ->
  before:Snapcc_runtime.Obs.t array ->
  after:Snapcc_runtime.Obs.t array ->
  unit
(** Checks, per transition:
    - {b exclusion}: no two conflicting committees meet in [after];
    - {b synchronization}: a convening committee had all members in the
      waiting state (status [looking]/[waiting]) in [before], and has all of
      them in status [waiting] right after convening (Lemma 2);
    - {b essential discussion}: a terminating committee (unless exempt) had
      every member in status [done] in [before], each with its discussion
      counter advanced since the convene;
    - {b voluntary discussion}: a terminating committee (unless exempt) has
      at least one member whose [RequestOut] held.

    Cost: a configuration is judged once.  When [after] is the array the
    previous call judged, its exclusion pairs are re-reported from a cache
    (Lemma 1 makes that list empty), and when [before == after] no
    committee can convene or terminate, so the per-edge pass is skipped:
    O(1) for a step that changed nothing ([Mp_engine.Make(A).obs]
    returns the same array then).  Physical identity is trusted, so
    callers must never mutate a configuration they passed in
    ([initial] included). *)

val on_fault : t -> Snapcc_runtime.Obs.t array -> unit
(** Notify that a transient fault was injected and show the corrupted
    configuration: meetings present in it become exempt from the discussion
    checks, exactly like the initial configuration's. *)

val violations : t -> violation list
val ok : t -> bool

val convened : t -> (int * int) list
(** [(step, eid)] ledger of convened meetings, chronological. *)

val terminations : t -> int
(** Number of meetings that broke up (met before a transition, not after),
    exempt ones included. *)

val convene_count : t -> int array
(** Per-committee number of convenes. *)

val participations : t -> int array
(** Per-professor number of convened meetings participated in. *)

val pp_violation : Format.formatter -> violation -> unit

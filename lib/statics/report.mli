(** Findings of the static analyzer ({!Analyze}) and their rendering.

    A report separates hard {e violations} of the model's side conditions
    (locality, write-ownership, determinism, crash-freedom) from the
    {e structural statistics} that are expected — and informative — on a
    correct algorithm: priority overlaps (how often the priority order
    actually arbitrates) and read/write interference (which concurrently
    enabled neighbor actions a message-passing refinement must
    serialize). *)

type rule =
  | Locality  (** a guard or statement read a non-neighbor's state *)
  | Write_ownership
      (** a statement mutated a state it does not own (or its own pre-step
          state in place, which breaks step atomicity) *)
  | Determinism
      (** two evaluations on the same configuration disagreed — hidden
          global or random state *)
  | Crash  (** a guard or statement raised an exception *)

val rule_name : rule -> string
(** ["locality"], ["write-ownership"], ["determinism"], ["crash"] — the
    names used by machine-readable output and expected by the tests. *)

type finding = {
  rule : rule;
  action : string;  (** action label, e.g. ["Step21"] *)
  proc : int;  (** executing process *)
  count : int;  (** (configuration, input-mode) pairs exhibiting it *)
  detail : string;  (** human-readable description of the first exhibit *)
}

type overlap = {
  labels : string list;
      (** the ≥2 simultaneously enabled actions of one process, code order *)
  times : int;  (** (configuration, input-mode, process) occurrences *)
  example_proc : int;
}

type interference = {
  writer : string;  (** action whose execution changes the writer's state *)
  reader : string;
      (** concurrently enabled neighbor action whose evaluation reads it *)
  times : int;
}

type t = {
  algo : string;
  topo : string;
  tier : string;
      (** ["sampled"] ({!Analyze}: verdicts relative to explored coverage)
          or ["exact"] ({!Exact}: verdicts absolute over the enumerated
          domain product) *)
  configs : int;  (** configurations analyzed *)
  evals : int;  (** action evaluations performed *)
  findings : finding list;  (** violations, sorted *)
  waived : finding list;  (** findings matching the analyzer's allow list *)
  overlaps : overlap list;  (** sorted by frequency, descending *)
  interference : interference list;  (** sorted by frequency, descending *)
  dead : string list;
      (** actions whose guard never held on any explored (configuration,
          input-mode, process) triple — unsatisfiable-guard suspects, in
          code order.  Suspect-level, not a violation: the exploration is
          coverage-relative, and some actions are legitimately dead on
          specific instances (e.g. CC2/CC3's [Token2] fast-forward, which
          only fires from corrupted token positions on topologies where the
          cap leaves them unreached). *)
  dead_proven : string list;
      (** guard provably false on the entire enumerated domain product —
          populated by the exact tier, or by {!classify_dead} when exact
          evidence is merged into a sampled report *)
  dead_unreached : string list;
      (** sampled-dead actions the exact tier shows satisfiable: the sample
          simply never reached an enabling configuration *)
}

val ok : t -> bool
(** No violations ([findings = []]; waived findings do not count). *)

(** {2 Building a report}

    Both tiers ({!Analyze}, {!Exact}) note their findings in a {!tally} and
    turn it into a report with {!build}, so aggregation, the allow list,
    the statistic orders and the dead lists are decided in one place. *)

type tally

val tally : unit -> tally

val note : tally -> finding -> unit
(** Count a finding under its (rule, action, process), adding
    [finding.count]; the first detail noted is kept as the exhibit. *)

val build :
  algo:string ->
  topo:string ->
  tier:string ->
  configs:int ->
  evals:int ->
  allow:rule list ->
  proven:bool ->
  labels:string array ->
  guard_true:int array ->
  overlaps:(string list * int * int) list ->
  interference:(string * string * int) list ->
  tally ->
  t
(** Findings sorted and split on [allow] (matching rules are waived);
    [overlaps] ([(labels, times, example_proc)]) and [interference]
    ([(writer, reader, times)]) sorted by frequency, descending.  An action
    [i] with [guard_true.(i) = 0] is dead: a proof when [proven] (the
    exact tier's complete enumeration), a suspect otherwise. *)

val classify_dead : proven:string list -> live:string list -> t -> t
(** Split [t.dead] on exact evidence: suspects in [proven] move to
    [dead_proven], suspects in [live] to [dead_unreached], and anything the
    exact tier could not decide (a skipped pass) stays a plain suspect. *)

val summary_table : t list -> Snapcc_experiments.Table.t
(** One row per analyzed (algorithm, topology) pair. *)

val detail_table : t -> Snapcc_experiments.Table.t
(** Per-finding rows (violations first, then waived findings). *)

val to_lines : t -> string list
(** Machine-readable violations, one per line:
    [lint algo=<name> topo=<name> tier=<tier> rule=<rule> action=<label>
    proc=<p> count=<k> detail=<text>], followed by one line per dead action —
    [suspect=dead-action] (sampled, undecided), [proven=dead-action]
    (exact proof), or [suspect=unreached-in-sample] (exact tier shows the
    guard satisfiable).  Waived findings are not included. *)

(** The exact static-analysis tier: {!Report} findings derived from the
    dense guard/footprint tables of {!Snapcc_mc.Tables}.

    Where {!Analyze} samples reachable configurations — its clean pass is
    sound {e relative to the explored coverage} — this tier enumerates each
    process's full support product over the declared {!Snapcc_mc.System.S}
    domains under every input mode.  On instances where every pass
    completes, a clean pass is therefore a {e proof} of the side conditions
    (locality, write-ownership, determinism, crash-freedom) over the
    enumerated family, a never-true guard is a dead-action proof
    ([Report.dead_proven]), and the overlap / interference statistics are
    exact counts.

    The same run yields the packed tables themselves, which
    {!Snapcc_mc.Explore.Make.explore} can execute by lookup (its
    [?tables] fast path) and [Artifact] can serialize. *)

type coverage = {
  cells : int;  (** (cell, mode) pairs enumerated, all processes *)
  seconds : float;
  complete : bool;
      (** every pass enumerated — the condition under which clean rules and
          dead actions are proofs *)
  stored : bool;  (** every pass also stored: tables usable by the explorer *)
  tainted : bool;  (** in-place mutation corrupted the interned stores:
                       tables and statistics are unreliable, findings remain
                       valid evidence *)
  live : string list;
      (** actions whose guard held on some enumerated cell — feeds
          {!Report.classify_dead} for sampled-report reclassification *)
  proc_status : (int * string) list;
      (** processes whose pass was not stored: [(proc, reason)] — the
          reason says whether it was streamed (enumerated, verdicts valid)
          or skipped (no verdicts claimed) *)
}

val agreement : exact:Report.t -> sampled:Report.t -> Report.finding list
(** Sampled violations the exact tier did {e not} reproduce or subsume
    (empty = the tiers agree).  Subsumption matches on rule and process;
    the action must agree unless the exact witness carries no action
    attribution (write-ownership evidence is fingerprint-based, label
    ["*"]).  Exact waived findings count as witnesses: a waived rule still
    explains a sampled finding. *)

module Make (Sys : Snapcc_mc.System.S) : sig
  val run :
    ?verify:bool ->
    ?cap:int ->
    ?store_cap:int ->
    ?allow:Report.rule list ->
    algo:string ->
    topo:string ->
    Snapcc_hypergraph.Hypergraph.t ->
    Report.t * coverage * Snapcc_mc.Tables.Make(Sys).t
  (** [run ~algo ~topo h] builds the tables (default [verify:true] — the
      full exact-lint configuration; caps as in {!Snapcc_mc.Tables.Make.build})
      and renders them as a [tier = "exact"] report.  [allow] waives rules
      exactly as {!Analyze.Make.analyze} does.  [Report.configs] and
      [Report.evals] both report enumerated (cell, mode) pairs. *)
end

(** One model-checking run, as [ccsim check] performs it per system: the
    exploration ({!Explore}), the weak-fairness progress analysis
    ({!Fairness}) when the exploration is complete, the {!Report.t}, and a
    minimized counterexample ({!Counterexample}) for the first safety
    violation, else the first deadlock, else the first livelock.

    Closure is judged only when every root is a configuration of the
    declared domain product.  The domain odometer ([sample = 0]) always
    satisfies that.  A sampled root drawn by [random_init] may lie outside
    the domain (a corrupted tree token, say); its own states are then
    escapees, so the report counts such roots ([Report.outside_roots]),
    keeps the escapee count, and leaves the verdict to safety and
    progress. *)

val to_json :
  frontier:(int * int) list -> Report.t list -> Snapcc_telemetry.Json.t
(** The [ccsim check --emit-json] document: one object per report, and
    the [(configs, transitions)] progress samples of the explorations. *)

module Make (S : System.S) : sig
  type t = {
    report : Report.t;
    escapees : (int * S.state) list;
        (** states reached outside the declared domain, by process *)
    cex : Counterexample.t option;  (** minimized *)
  }

  val run :
    ?max_configs:int ->
    ?keep_going:bool ->
    ?sample:int ->
    ?seed:int ->
    ?on_progress:(configs:int -> transitions:int -> unit) ->
    ?tables:Tables.Make(S).t ->
    ?symmetry:Symmetry.group ->
    ?since:float ->
    algo:string ->
    token:string ->
    topo:string ->
    Snapcc_hypergraph.Hypergraph.t ->
    t
  (** [run ~algo ~token ~topo h] explores from every domain configuration
      or, with [sample = K > 0], from the canonical configuration plus [K]
      seeded [random_init] ones ([seed], default 1).  The exploration
      stops at the first safety violation unless [keep_going];
      [max_configs], [on_progress], [tables] and [symmetry] go to
      {!Explore.Make.explore}.  [Report.seconds] is the CPU time from
      [since] (default: the call) to the end of the exploration, so a
      caller's table build and symmetry admission count toward it. *)
end

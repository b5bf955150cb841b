(** Optional trace recording: a sequence of observation snapshots with the
    actions that produced them, for pretty-printing example runs and for
    offline checks in tests. *)

type entry = {
  step : int;
  executed : (int * string) list;
  obs : Obs.t array;  (** configuration after the step *)
  fault : bool;
      (** a fault-injection boundary recorded with {!record_fault}, not an
          algorithm step *)
}

type t

val create : Snapcc_hypergraph.Hypergraph.t -> initial:Obs.t array -> t
val record : t -> Model.step_report -> Obs.t array -> unit

val record_fault : t -> step:int -> Obs.t array -> unit
(** Record a transient-fault boundary: [obs] is the corrupted configuration
    before the step numbered [step]. *)

val entries : t -> entry list
(** In chronological order (fault boundaries included). *)

val length : t -> int
(** Recorded entries, fault boundaries included. *)

val pp : Format.formatter -> t -> unit

val pp_timeline : ?width:int -> Format.formatter -> t -> unit
(** ASCII meeting timeline: one row per committee, time bucketed into
    [width] columns (default 64), [#] where the committee met during the
    bucket.  The at-a-glance picture of concurrency and fairness. *)

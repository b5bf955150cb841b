(** Rendering of model-checking runs: one record per (system, token,
    topology) check, a column-aligned summary table (the [ccsim check]
    matrix, also recorded in EXPERIMENTS.md) and a verdict. *)

type t = {
  algo : string;
  token : string;
  topo : string;
  product : float;  (** initial configurations (domain product) *)
  configs : int;  (** configurations explored *)
  symmetry_order : int;
      (** order of the group the exploration was quotiented by: [configs]
          counts orbit representatives when above 1 (1 = no quotient) *)
  transitions : int;
  complete : bool;
  escapees : int;  (** closure failures of the declared domain *)
  outside_roots : int;
      (** sampled roots outside the declared domain (0 for the domain
          product); their own states are escapees, so closure is judged
          only when there are none *)
  dead : string list;  (** actions never executed (suspect, non-fatal) *)
  safety_violations : int;
  first_rule : string option;
  progress_checked : bool;
  sccs : int;
  largest_scc : int;
  deadlocks : int;
  livelocks : int;
  seconds : float;  (** CPU seconds spent exploring *)
}

type outcome = Pass | Fail | Incomplete

val closure_judged : t -> bool
(** Every root lay in the declared domain ([outside_roots = 0]), so an
    escapee is a closure failure. *)

val outcome : t -> outcome
(** [Fail] on any safety violation, deadlock or livelock, or on an
    escapee when {!closure_judged}; [Incomplete] when the exploration was
    capped before a verdict. *)

val summary_table : t list -> Snapcc_experiments.Table.t
val pp : Format.formatter -> t -> unit

val to_json : t -> Snapcc_telemetry.Json.t
(** One report as [ccsim check --emit-json] writes it. *)

(** Counterexample traces: a serializable recipe — initial configuration
    (as per-process domain indices), daemon selections and input modes —
    that re-executes through the {e real} engine and runtime monitors
    ([ccsim replay]), plus trace minimization.

    Minimization exploits the snap-stabilization quantification: any state
    on the path is itself a legal initial configuration, so prefixes can be
    shifted away wholesale; daemon selections are then shrunk process by
    process.  Both passes are validated against the replay oracle and
    iterated to a fixpoint, which makes minimization idempotent. *)

type step = { mode : int;  (** input-mode index, see {!Explore.mode_inputs} *)
              selected : int list }

type kind = Safety of string  (** violated {!Snapcc_analysis.Spec} rule *)
          | Deadlock
          | Livelock

type t = {
  algo : string;  (** {!Systems} registry key *)
  token : string;  (** token-layer key *)
  topo : string;  (** {!Snapcc_hypergraph.Families.by_name} name *)
  kind : kind;
  detail : string;
  init : int list;  (** per-process state-domain indices (see {!Encode}) *)
  steps : step list;  (** for [Safety], the last step is the violation *)
  loop : step list;  (** for [Livelock], the convene-free cycle *)
}

val of_safety :
  algo:string -> token:string -> topo:string -> rule:string -> detail:string ->
  init:int array -> steps:(int * int list) list -> t

val of_deadlock :
  algo:string -> token:string -> topo:string -> detail:string ->
  init:int array -> steps:(int * int list) list -> t

val of_livelock :
  algo:string -> token:string -> topo:string -> detail:string ->
  init:int array -> steps:(int * int list) list -> loop:int list list -> t

val pp : Format.formatter -> t -> unit
val to_file : string -> t -> unit

val of_file : string -> t
(** Raises [Failure] on syntax errors or version mismatch. *)

module Make (Sys : System.S) : sig
  type verdict =
    | Reproduced of string  (** the violation re-manifested; how *)
    | Not_reproduced of string
    | Invalid of string  (** the trace is not executable on this system *)

  val replay :
    ?trace:Format.formatter ->
    Snapcc_hypergraph.Hypergraph.t ->
    t ->
    verdict
  (** Re-executes the trace through {!Snapcc_runtime.Engine} with a
      scripted daemon, feeding every transition to a fresh
      {!Snapcc_analysis.Spec} monitor; [Safety] reproduces iff the monitor
      reports the recorded rule, [Deadlock] iff the final configuration is
      terminal under in+out with a fully waiting committee, [Livelock] iff
      the loop returns to its entry configuration without convening.
      [trace] receives one line per executed step, then the configuration
      the replay ends in ({!Snapcc_runtime.Obs.pp_snapshot}). *)

  val minimize : Snapcc_hypergraph.Hypergraph.t -> t -> t
  (** Replay-validated prefix shifting and selection shrinking, iterated
      to a fixpoint ([Safety] counterexamples; others returned as-is). *)
end

(** Shared cmdliner plumbing for `ccsim' (and its tests).

    The validating converters, the topology converter and the soak-mode
    burst resolution live here — outside [bin/] — so the
    cmdliner-level behavior (e.g. the [--burst-at]/[--soak] precedence)
    is testable with [Cmd.eval_value ~argv] without linking the
    executable. *)

val pos_int_conv : int Cmdliner.Arg.conv
(** Positive integers; parse-time error otherwise. *)

val nonneg_int_conv : int Cmdliner.Arg.conv
(** Non-negative integers; parse-time error otherwise. *)

val probability_conv : float Cmdliner.Arg.conv
(** Floats in [0,1]; parse-time error otherwise. *)

val topology :
  string -> (Snapcc_hypergraph.Hypergraph.t, string) result
(** A named family ("fig1", "ring6", ...) or a committee-file path. *)

val topo_conv : (string * Snapcc_hypergraph.Hypergraph.t) Cmdliner.Arg.conv
(** Parse-time converter over {!topology}: every [ccsim] command's [-t]
    goes through it, keeping the name as given. *)

val burst_arg : int option Cmdliner.Term.t
(** [--burst-at STEP]: pin the soak-mode corruption burst. *)

val soak_arg : bool Cmdliner.Term.t
(** [--soak]: derive the burst step from the horizon.  An explicit
    [--burst-at] always wins; see {!resolve_burst}. *)

val resolve_burst : steps:int -> soak:bool -> int option -> int option
(** The single decision point for the burst step: [Some s] from
    [--burst-at s] (wins even when [--soak] is also given), else
    [Some (steps / 2)] under [--soak], else [None]. *)

val fault_arg : int option Cmdliner.Term.t
(** [--fault-at STEP]: corrupt half the processes of a [ccsim run]. *)

val check_step :
  flag:string -> steps:int -> int option -> (int option, string) result
(** A fault step ([--fault-at], or the burst {!resolve_burst} chose) must
    lie in [[0, steps)]: a step outside the horizon would inject nothing.
    The error names [flag] and the horizon. *)

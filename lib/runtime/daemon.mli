(** Daemons (schedulers) of §2.2.

    A daemon selects, at each step, a non-empty subset of the enabled
    processes.  The paper's results are stated for distributed weakly fair
    daemons: every continuously enabled process is eventually selected.  All
    daemons here are weakly fair — the adversarial ones enforce it with a
    starvation bound — except where documented. *)

type t

val name : t -> string

val select :
  t -> rng:Random.State.t -> step:int -> enabled:int list ->
  continuously_enabled:(int -> int) -> int list
(** [continuously_enabled p] is the number of consecutive past steps during
    which [p] was enabled without executing.  The result is a non-empty
    subset of [enabled] (checked by the engine). *)

val synchronous : t
(** Selects every enabled process: the maximal distributed daemon. *)

val central : unit -> t
(** Selects exactly one process, rotating round-robin over process indices
    (stateful: create one per run). *)

val random_subset : ?p:float -> unit -> t
(** Each enabled process is selected independently with probability [p]
    (default 0.5); if the coin leaves the set empty, one enabled process is
    drawn uniformly.  Any process continuously enabled for 64 steps is
    force-selected, making the daemon weakly fair. *)

val adversarial : name:string -> score:(int -> int) -> t
(** Selects the single enabled process with the highest [score] (ties to the
    smallest index), but force-selects starving processes after 256
    steps. *)

val of_fun : name:string -> (step:int -> enabled:int list -> int list) -> t
(** Fully scripted daemon: the function must return a non-empty subset of
    [enabled] (the engine validates).  Not necessarily fair. *)

val all_standard : unit -> t list
(** Fresh instances of the daemons every sweep runs against:
    synchronous, central, and two random-subset densities. *)

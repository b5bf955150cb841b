(** The computational model of §2.2: locally shared variables and
    prioritized guarded actions.

    Each process owns a state; a guard may read the state of the process and
    of its neighbors in the underlying network; a statement computes a new
    local state.  Actions are listed {e in the order of the paper's code}:
    an action appearing {b later} has {b higher} priority, and a selected
    enabled process executes its highest-priority enabled action.  All
    selected processes of a step read the same pre-step configuration. *)

type inputs = {
  request_in : int -> bool;
      (** [RequestIn(p)]: the professor requests to join a committee. *)
  request_out : int -> bool;
      (** [RequestOut(p)]: the professor wants to stop discussing. *)
}

val no_inputs : inputs
(** Both predicates constantly false. *)

val always_in : inputs
(** [RequestIn] constantly true, [RequestOut] constantly false. *)

val input_modes : (string * inputs) array
(** The four uniform input modes the analysis tools quantify over, applied
    to all processes alike: ["quiet"] (no requests), ["in"], ["out"],
    ["in+out"].  Shared by the static analyzer ([lib/statics]) and the
    model checker ([lib/mc]) so their input coverage cannot drift apart. *)

type 'state ctx = {
  h : Snapcc_hypergraph.Hypergraph.t;
  inputs : inputs;
  read : int -> 'state;  (** read a process state (self or neighbor only) *)
  self : int;
}

type 'state action = {
  label : string;
  guard : 'state ctx -> bool;
  apply : 'state ctx -> 'state;
}

val priority : 'state action array -> 'state ctx -> int
(** The §2.2 step rule: the index of the enabled action appearing latest in
    code order, or [-1] if none is enabled.  Guards are evaluated from the
    last action down, and none after the first that holds. *)

module type ALGO = sig
  type state

  val name : string
  val pp_state : Format.formatter -> state -> unit
  val equal_state : state -> state -> bool

  val init : Snapcc_hypergraph.Hypergraph.t -> int -> state
  (** A canonical well-initialized state. *)

  val random_init :
    Snapcc_hypergraph.Hypergraph.t -> Random.State.t -> int -> state
  (** An {e arbitrary} state drawn over the whole state domain: the
      post-transient-fault configurations of the snap-stabilization
      definition (§2.5). *)

  val actions : Snapcc_hypergraph.Hypergraph.t -> state action list
  (** In code order; the last action has the highest priority. *)

  val observe :
    Snapcc_hypergraph.Hypergraph.t -> state array -> int -> Obs.t
end

(** Hooks of {!Engine}'s packed fast path (engine-agnostic closures,
    produced by [Snapcc_mc.Packed] — this library cannot see the
    checker).  {!Engine} mirrors the configuration as dense per-process
    ids of canonical states ([pk_intern]) and keys its scan {!Memo}
    ([pk_memo]) on the ids of each closed neighbourhood; nothing is
    enumerated in advance. *)
type 'state packed = {
  pk_intern : int -> 'state -> int;
      (** canonicalize + intern a state, assigning a fresh id on first
          sight; raises [Failure] past the interner's per-process bound,
          which {!Engine} treats as "disable the fast path for the rest of
          the run" *)
  pk_memo : Memo.t;
      (** the scan memo, filled by every {!Engine} built from these hooks
          (so every smc trial of one worker shares it), allocated on its
          first miss *)
}

val mode_of : inputs -> int -> int
(** The uniform input mode a process experiences under per-process inputs:
    bit 0 = [request_in p], bit 1 = [request_out p], indexing
    {!input_modes}.  {!Engine} tracks it per process to find the entries
    an input change invalidates, and its memo keys the mode of every
    process of the neighbourhood. *)

type step_report = {
  step : int;  (** 0-based index of the step just taken *)
  selected : int list;  (** processes chosen by the daemon *)
  executed : (int * string) list;  (** (process, action label) pairs *)
  neutralized : int list;
      (** enabled before the step, did not execute, disabled after (§2.2) *)
  round : int;  (** completed-round count after this step *)
  terminal : bool;  (** no process was enabled (nothing happened) *)
}

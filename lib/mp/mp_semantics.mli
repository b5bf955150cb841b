(** The semantics the in-process emulation ({!Mp_engine}) and the networked
    runtime ({!Snapcc_net}) share, owned in one place so that a fault-free
    networked run replays an [Mp_engine] run of the same seed event for
    event: the scheduler, every random draw of the run, and the vector
    clocks with the [clock] events they stamp.  Each engine keeps only its
    transport (typed views and coalescing slots in memory; links, frames
    and node processes over the wire).

    One instance owns the run's random state, the per-process
    activation-starvation counters and the per-link cache-age counters.
    Each scheduler step either {e activates} a process (it executes its
    highest-priority enabled action on its possibly-stale view and
    re-broadcasts its state) or {e delivers} one pending message
    (refreshing the receiver's cache).  Fairness: a process idle for [16 n]
    steps is force-activated; a pending message whose target cache entry
    is [16 n] steps old is force-delivered.

    Links are named from the receiver's side: [(dst, slot)] is the link
    into [dst] from [neighbors dst].(slot). *)

type t

type decision =
  | Activate of int  (** process index *)
  | Deliver of int * int  (** receiver, slot in its sorted neighbor array *)

val create :
  ?deliver_bias:float ->
  seed:int ->
  Snapcc_hypergraph.Hypergraph.t ->
  t
(** [deliver_bias] (default 0.5) is the probability that a step delivers a
    pending message rather than activating a process. *)

val peer_slot : t -> int -> int -> int
(** [peer_slot t p i] is [p]'s slot in the neighbor array of its [i]-th
    neighbor: a broadcast from [p] fills link [(neighbors p).(i),
    peer_slot t p i]. *)

(** {2 Random configurations}

    Every draw comes from the run's one generator, in a fixed order; both
    engines obtain their states here and only here. *)

type 's config = {
  cores : 's array;
  caches : 's array array;  (** [caches.(p).(i)]: by slot *)
  in_flight : 's option array array;
      (** [in_flight.(p).(i)]: the snapshot pending on link [(p, i)] *)
}

val initial :
  t ->
  [ `Canonical | `Random ] ->
  canonical:(int -> 's) ->
  random:(Random.State.t -> int -> 's) ->
  's config
(** The initial configuration.  [`Canonical]: [canonical] cores, caches
    that agree with them and empty links, without a draw.  [`Random]:
    random cores, then cache rows, then per link a coin and, on heads, a
    random snapshot from the sender. *)

type 's corruption = {
  core : 's;
  cache : 's array;
  forged : 's option array;
      (** by slot: the snapshot the adversary planted on the link, which
          replaces whatever was pending there *)
}

val corruption :
  t -> random:(Random.State.t -> int -> 's) -> int -> 's corruption
(** One victim's transient fault, drawn in {!initial}'s order (core, cache
    row, then coin and snapshot per link). *)

(** {2 Scheduler} *)

val begin_step : t -> unit
(** Open a scheduler step: ages every cache entry and every activation
    counter, and updates the worst-staleness watermark. *)

val decide : t -> pending:(int -> int -> bool) -> decision
(** The decision for the step just opened; [pending dst slot] tells
    whether link [(dst, slot)] holds a deliverable message.  Forced events
    come first (the lowest starving process, then the greatest stale
    pending link); otherwise the generator chooses delivery (a uniform
    pending link) over activation (a uniform process) with probability
    [deliver_bias].  Allocates nothing but the decision. *)

val on_activated : t -> int -> acted:bool -> unit
(** [p] was activated: its starvation counter resets and, when it
    executed an action, its clock ticks.  Call it before broadcasting, so
    the snapshots carry the tick. *)

val on_delivered :
  t -> dst:int -> slot:int -> carried:Snapcc_telemetry.Vclock.t -> unit
(** A delivery was accepted: the receiver's cache entry is fresh, and its
    clock merges [carried] (the sender's clock when the snapshot entered
    the link; ignored unless clocks are tracked), then ticks. *)

val on_corrupted : t -> int -> unit
(** After a victim's {!corruption} was applied: its clock ticks and is
    stamped.  A forged snapshot carries its alleged sender's {!clock} at
    the time it was planted. *)

val steps : t -> int
val max_staleness : t -> int
(** Largest number of steps any cache entry has gone without refresh over
    the whole run. *)

(** {2 Vector clocks}

    One clock per process, by the rules of {!Snapcc_telemetry.Vclock}:
    component [p] is 1 at initialisation (the initial configuration is
    [p]'s first event), ticks on an activation that executed an action,
    merges the carried clock then ticks on an accepted delivery, and
    ticks on a corruption.  Purely observational: no clock operation
    draws from the generator, so tracked and untracked runs make the same
    decisions. *)

val track_clocks :
  t -> ?hub:Snapcc_telemetry.Hub.t -> (int -> Snapcc_runtime.Obs.t) -> unit
(** [track_clocks t ?hub observe] starts keeping the clocks; with [hub],
    {!stamp} emits [clock] events carrying [observe p], [p]'s observation
    of the true configuration.  Without this call every clock operation is
    a no-op. *)

val clock : t -> int -> Snapcc_telemetry.Vclock.t
(** The live clock of a process (do not mutate; copy it to keep it).
    Raises [Invalid_argument] when clocks are not tracked. *)

val stamp : t -> k:int -> int -> unit
(** Emit a process's [clock] event of kind [k]
    ({!Snapcc_telemetry.Event.clock_activation}, ...) at the current step;
    a no-op without a hub. *)

val stamp_initial : t -> unit
(** Emit every process's initialisation [clock] event, once: the first
    call does it, later calls do nothing. *)

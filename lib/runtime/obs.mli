(** Common observation layer.

    Every algorithm in the repository (CC1/CC2/CC3, the token substrate, the
    baselines) projects its per-process state onto this record, so that
    monitors, metrics, trace printers and experiments are written once,
    against the vocabulary of the paper (§2.3, §4.2): statuses, edge
    pointers, token flags. *)

type status = Idle | Looking | Waiting | Done

type t = {
  status : status;
  pointer : int option;  (** [Pp]: committee (edge id) pointed at, if any *)
  token_flag : bool;  (** the mirrored variable [Tp] *)
  locked : bool;  (** [Lp] (CC2/CC3 only; [false] elsewhere) *)
  has_token : bool;  (** the [Token(p)] input predicate from [TC] *)
  discussions : int;  (** number of essential discussions executed so far *)
}

val make :
  ?pointer:int option -> ?token_flag:bool -> ?locked:bool -> ?has_token:bool ->
  ?discussions:int -> status -> t

val code : t -> int
(** Dense packing of every field but [discussions] (2 status bits, the
    three flags, pointer biased by one) — the [obs_code] payload of causal
    [Clock] events. *)

val of_code : code:int -> discussions:int -> t
(** Exact inverse of {!code}, the discussions counter supplied
    separately. *)

val equal : t -> t -> bool
val pp_status : Format.formatter -> status -> unit
val pp : Format.formatter -> t -> unit

val is_waiting : t -> bool
(** Waiting in the sense of the original problem (§4.2): status is
    [Looking] or [Waiting]. *)

val meets : Snapcc_hypergraph.Hypergraph.t -> t array -> int -> bool
(** A committee meets iff every member points at it with status in
    [{Waiting; Done}] (§4.2). *)

val committee_waiting : Snapcc_hypergraph.Hypergraph.t -> t array -> bool
(** Some committee has every member waiting ({!is_waiting}): the
    hypothesis of the progress property (§2.3). *)

val meetings : Snapcc_hypergraph.Hypergraph.t -> t array -> int list
(** Committees currently meeting, ascending edge ids. *)

val participants : Snapcc_hypergraph.Hypergraph.t -> t array -> int list
(** Vertices participating in some meeting. *)

val pp_snapshot : Snapcc_hypergraph.Hypergraph.t -> Format.formatter -> t array -> unit
(** One-line-per-professor rendering of a configuration, using paper
    identifiers. *)

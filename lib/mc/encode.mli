(** Hash-consed state store and bit-packed configuration keys.

    Per process, every distinct (canonicalized) state is interned once and
    identified by a dense integer; the declared {!System.S.domain} is
    interned first, so domain states get ids [0 .. domain_count - 1] and any
    id beyond that range is an {e escapee} — a reachable state the domain
    declaration missed (a closure failure the checker reports).

    A configuration is the vector of its per-process state ids, packed into
    a single key: each process contributes [ceil log2 (4 * domain_count)]
    bits (headroom for escapees), and when the total fits a 62-bit word the
    key is one boxed-free [int] — the common case on the small instances the
    checker targets — with a byte-string fallback otherwise. *)

module Make (Sys : System.S) : sig
  type t

  val create : Snapcc_hypergraph.Hypergraph.t -> t
  (** Interns [Sys.domain h p] for every [p] (in list order). *)

  val on_demand : width:int -> Snapcc_hypergraph.Hypergraph.t -> t
  (** An interner that declares no domain and enumerates nothing: every id
      is assigned on first sight (all of them escapees, to {!escapees}),
      and {!intern} raises [Failure] past [2^width] states of one
      process. *)

  val n : t -> int
  (** Number of processes. *)

  val domain_count : t -> int -> int
  val product_size : t -> float
  (** [Π_p domain_count p] — the number of initial configurations. *)

  val intern : t -> int -> Sys.state -> int
  (** [intern t p s] canonicalizes [s] and returns its dense id, assigning
      a fresh one (an escapee, beyond the domain) if never seen.  Raises
      [Failure] if escapees overflow the headroom of the packed encoding —
      which means the declared domain is not remotely closed. *)

  val find : t -> int -> Sys.state -> int option
  (** Like {!intern} but never assigns: [None] if unknown. *)

  val state : t -> int -> int -> Sys.state
  (** [state t p id] — inverse of {!intern}. *)

  val count : t -> int -> int
  (** States interned so far for [p] (domain + escapees). *)

  val escapees : t -> (int * Sys.state) list
  (** [(process, state)] pairs interned beyond the declared domain. *)

  (** Configuration-key table: maps packed configurations to dense
      configuration ids (assigned in discovery order). *)
  type table

  val table : t -> table
  val table_count : table -> int

  val find_or_add : t -> table -> int array -> [ `Existing of int | `New of int ]
  (** Look the per-process id vector up, assigning the next configuration
      id if new. *)
end

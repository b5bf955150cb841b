(** Hash-consed state store and bit-packed configuration keys.

    Per process, every distinct (canonicalized) state is interned once and
    identified by a dense integer; the declared {!System.S.domain} is
    interned first, so domain states get ids [0 .. domain_count - 1] and any
    id beyond that range is an {e escapee} — a reachable state the domain
    declaration missed (a closure failure the checker reports).

    A configuration is the vector of its per-process state ids, packed into
    a key (a {!Bitpack} record): each process contributes
    [ceil log2 (4 * domain_count)] bits (headroom for escapees), and the
    key is cut into [ceil (bits / 62)] words — one word on every catalog
    instance of at most 62 key bits.
    The configuration table stores each key once, indexed by configuration
    id, and finds it through an open-addressing table of ids. *)

val id_bits : int
(** Configuration ids are below [2^id_bits] (40): a table slot keeps an id
    in that many bits. *)

module Make (Sys : System.S) : sig
  type t

  val create : Snapcc_hypergraph.Hypergraph.t -> t
  (** Interns [Sys.domain h p] for every [p] (in list order). *)

  val on_demand : width:int -> Snapcc_hypergraph.Hypergraph.t -> t
  (** An interner that declares no domain and enumerates nothing: every id
      is assigned on first sight (all of them escapees, to {!escapees}),
      and {!intern} raises [Failure] past [2^width] states of one
      process. *)

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

  val key_words : t -> int
  (** Words per configuration key. *)

  (** Configuration table: maps packed configurations to dense
      configuration ids (assigned in discovery order) and back.  A lookup
      allocates nothing; the keys grow in chunks and are never copied,
      and the slot array doubles and is rehashed from them. *)
  type table

  val table : t -> table
  val table_count : table -> int

  val find_or_add : table -> int array -> int
  (** The configuration id of a per-process id vector.  A vector not seen
      before gets the next id, which is [table_count] before the call. *)

  val config_ids : table -> int -> int array
  (** The per-process id vector of a configuration id, decoded from its
      stored key. *)
end

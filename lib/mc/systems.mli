(** The algorithm catalog: every algorithm the repository runs — the
    paper's, the deliberately broken validation variants, the token-only
    ablation and the §6 baselines — composed with a token layer where it
    has one and equipped with the finite domain + canonicalization of
    {!System.S}.

    The committee layers carry one unbounded counter each ([disc]; CC3 also
    [cur], read only modulo the degree): [canon] resets / normalizes them,
    which is invisible to every guard and statement, so the quotient is
    exact.  Token domains come from {!Snapcc_token.Layer.S.domain}. *)

module Cc1_sys
    (T : Snapcc_token.Layer.S)
    (M : Snapcc_core.Cc1.S with type token_state = T.state) :
  System.S with type state = M.state
(** CC1's committee layer over a token domain, as a checkable system.
    Exposed as a functor (not only through {!all}'s abstract packages) so
    tests and benchmarks that hold a {e typed} [Model.ALGO] instance can
    build packed hooks of the same state type. *)

module Cc23_sys
    (T : Snapcc_token.Layer.S)
    (M : sig
      include
        Snapcc_runtime.Model.ALGO
          with type state = Snapcc_core.Cc23.cc * T.state
    end)
    (C : sig
      val cursor : bool
    end) : System.S with type state = M.state
(** CC2 ([cursor = false]) / CC3 ([cursor = true]); see {!Cc1_sys} for
    why the functor is public. *)

(** {2 The algorithm catalog}

    The one table from an algorithm name to its implementation.  Every
    [ccsim] command, {!Snapcc_smc.Runner}, the networked runtime and the
    bench resolve names here, unpack the first-class module and apply
    their engine functors ([Driver.Make], [Packed.Make], [Trial.Of],
    [Mp_engine.Make], [Encode.Make]) locally.  Adding an algorithm is one
    {!entry}. *)

type role =
  | Paper  (** one of the paper's algorithms *)
  | Broken  (** a deliberate defect: the checker must find it *)
  | Ablation  (** a paper algorithm with one mechanism removed *)
  | Baseline  (** a §6 comparison algorithm with its own state *)

type entry = {
  key : string;  (** CLI name, e.g. ["cc1"], ["cc1-inverted"] *)
  title : string;
  role : role;
  token : string option;
      (** the token layer [key] alone runs over; [None]: the entry has no
          token layer (the baselines) *)
  tag : int option;
      (** {!Snapcc_net.Codec} wire tag of [key] over its default token:
          the networked runtime (and its reference, [ccsim mp]) serves
          exactly the tagged systems *)
  local : bool;
      (** every process reads only its neighbourhood, whatever the token
          layer; [false] for the centralized baseline *)
  make : string -> (module System.S);
      (** instantiate with a token-layer key; raises [Invalid_argument] on
          unknown tokens.  Token-less entries ignore the argument. *)
}

val token_keys : string list
(** ["vring"; "tree"; "null"]. *)

val all : entry list
val find : string -> entry option
(** By key. *)

val local_over : entry -> string option -> bool
(** [local_over e token]: [e] over the token layer [token] reads only
    neighbourhoods.  False for a non-{!entry.local} entry, and over
    ["vring"], a non-local oracle (process 0 reads the last process of the
    virtual ring); token-less entries ignore [token].  Lint waives the
    locality findings of a composition that is not local. *)

type resolved = {
  name : string;  (** the name as resolved *)
  entry : entry;
  token : string option;
  tag : int option;
      (** the entry's tag when [token] is its default token, else [None] *)
  sys : (module System.S);
}

val resolve : string -> resolved option
(** A name is [key] (the entry over its default token) or, for a
    token-layer entry, [key-vring], [key-tree] or [key-no-token] (the
    null layer keeps the ablation's established spelling). *)

val name_over : string -> string -> string
(** [name_over key token]: the name of [key] over the token layer [token]
    (["cc2"], ["vring"] give ["cc2-vring"]).  A counterexample file
    records its system as such a pair. *)

val of_tag : int -> resolved option
(** The entry carrying a wire tag, over its default token. *)

(** {2 Which command takes which name}

    Derived from role and tag, never from per-command lists. *)

val any : resolved -> bool
(** [ccsim run] and [ccsim smc]: every name. *)

val wired : resolved -> bool
(** [ccsim mp] and [ccsim net]: names with a wire tag. *)

val checkable : resolved -> bool
(** [ccsim check] and [ccsim replay]: the names of paper and broken
    entries (the checker's progress analysis presumes the paper's
    committee observables). *)

val lintable : resolved -> bool
(** [ccsim lint]: the names of the paper's algorithms and the baselines;
    both of its tiers run the resolved system. *)

val names : (resolved -> bool) -> string list
(** Every accepted name, in catalog order, keys before their token forms. *)

val keys : (resolved -> bool) -> string list
(** The accepted keys alone (each entry over its default token): what
    [ccsim check -a all] and [ccsim lint -a all] run. *)

val describe : (resolved -> bool) -> string
(** A compact rendering of {!names} for help texts and errors. *)

val lookup :
  what:string -> (resolved -> bool) -> string -> (resolved, string) result
(** {!resolve}, restricted to an accepting predicate; the error names what
    [what] takes instead. *)

val pp_catalog : Format.formatter -> unit -> unit
(** The catalog as [ccsim list] prints it: one row per entry, then the
    names each command takes. *)

(** The wire codec of the networked runtime: a binary frame format for
    full-state snapshots and the node-control protocol, with version and
    algorithm tags and a {e strict} decoder.

    Frame body layout (the 4-byte big-endian length prefix is added and
    consumed by {!Wire}):

    {v
    magic   4 bytes   "SNCC"
    version 1 byte    {!version}
    algo    1 byte    algorithm tag (0 = handshake control frame)
    kind    1 byte    message kind
    payload n bytes   kind-specific binary fields
    crc32   4 bytes   CRC-32 (IEEE) of everything above, big-endian
    v}

    The decoder verifies, in order: magic, version, algorithm tag (when an
    expectation is supplied), checksum, kind, payload shape, and that no
    trailing bytes remain.  {b A malformed frame is a transient fault, not
    a crash}: decoding returns a typed error, the runtime counts the frame
    as a lost message, and state payloads (OCaml [Marshal] blobs, opaque at
    this layer) are only ever unmarshalled after the checksum has been
    verified. *)

val version : int

val magic : string

val algo_tag : string -> int option
(** The wire tag of an algorithm name, from its {!Snapcc_mc.Systems} entry
    (["cc1"]/["cc2"]/["cc3"] carry 1/2/3). *)

(** The protocol messages.  [core]/[cache]/[state] fields carry marshalled
    algorithm states, opaque to the codec (the orchestrator and the node
    run the same executable, so the representation is shared by
    construction; the checksum guards the bytes in between). *)
type msg =
  | Hello of { id : int }  (** node → orchestrator, on connect *)
  | Init of { seed : int; topo : string; core : string; cache : string }
      (** orchestrator → node: topology (committee-file format), initial
          core and per-neighbor cache (marshalled [state] /
          [state array]).  The frame's algo tag tells the node which
          algorithm to instantiate. *)
  | Ready  (** node → orchestrator, after [Init] *)
  | Activate of { step : int; req_in : bool array; req_out : bool array }
      (** orchestrator → node: execute the highest-priority enabled action
          against the cached view, under these input predicates. *)
  | Activated of { label : string option; core : string; clock : string }
      (** node → orchestrator: the action executed (if any), the node's
          new true core — the full-state snapshot that the link layer
          fans out to the neighbors — and the node's vector clock
          ({!Snapcc_telemetry.Vclock.encode_full}), which the orchestrator
          cross-checks against its mirror (a protocol invariant: the
          replies to every frame sent before the [Activate] are checked
          first). *)
  | Deliver of { src : int; state : string; clock : string }
      (** orchestrator → node: a neighbor's snapshot reached you
          (version-2 full-marshal form, still used by the closure engine).
          [clock] is the sender's vector clock at send time, full-encoded. *)
  | Delivered  (** node → orchestrator: cache refreshed *)
  | Deliver_full of {
      src : int;
      seq : int;
      form : int;
      payload : string;
      clock : string;
    }
      (** orchestrator → node, packed engine: a full snapshot.  [form] 1:
          [payload] is the sender's state as an 8-byte little-endian
          packed-domain id; [form] 0: a marshalled state (the fallback for
          states outside the interned domain).  [seq] names the snapshot
          per link so deltas can reference it.  [clock] is a full-form
          vclock trailer ({!Snapcc_telemetry.Vclock.encode_wire}). *)
  | Deliver_delta of {
      src : int;
      seq : int;
      base_seq : int;
      delta : string;
      clock : string;
    }
      (** orchestrator → node, packed engine: the snapshot as a
          {!Delta} against the last payload the node acknowledged on this
          link ([base_seq]); the target keeps the base's form.  [clock] is
          a vclock trailer, usually delta-form against the clock accepted
          with [base_seq] (full-form when link reordering made the delta
          inexpressible); an unusable trailer triggers [Resync], like any
          other base mismatch. *)
  | Resync of { reason : string }
      (** node → orchestrator: a [Deliver_full]/[Deliver_delta] was
          well-formed on the wire but could not be applied (base out of
          sync, delta CRC mismatch, unknown packed id).  The orchestrator
          treats it like a transient fault and falls back to a full
          snapshot — never a wrong state. *)
  | Corrupt of { core : string; cache : string }
      (** orchestrator → node: transient fault injection — replace core
          and cache wholesale. *)
  | Corrupted
  | Decode_error of { reason : string }
      (** node → orchestrator: the incoming frame failed strict decoding
          and was treated as lost. *)
  | Bye
  | Bye_ack of { frames : int; decode_errors : int }
      (** node → orchestrator: per-node frame statistics, then exit. *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_algo of int  (** tag differs from the expected algorithm *)
  | Bad_checksum
  | Bad_kind of int
  | Truncated
  | Trailing of int  (** well-formed payload followed by junk bytes *)
  | Bad_payload of string

val error_to_string : error -> string

val encode : algo:int -> msg -> string
(** The frame body ([algo] 0 for handshake frames). *)

val decode : ?expect:int -> string -> (int * msg, error) result
(** [(algo-tag, msg)].  With [~expect], a non-handshake frame whose tag
    differs is [Bad_algo]; handshake frames (tag 0) always pass the tag
    check. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3), exposed for tests. *)

val corrupt_body : Random.State.t -> string -> string
(** Flip one to four distinct random bits of a non-empty frame body — the
    fault injector's frame-corruption primitive.  The result always
    differs from the input, and the strict decoder must reject it. *)

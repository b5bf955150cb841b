(** Growable arrays, the checker's workhorse store: configuration keys,
    per-configuration records and transitions all live in vectors,
    bit-packed by {!Bitpack}.

    A vector grows in fixed chunks of {!chunk} slots, so a push never
    copies a long vector and leaves less than one chunk of slack.  Only
    the first chunk starts small (8 slots) and doubles up to {!chunk}, so
    a short vector costs no more than a plain growable array. *)

type 'a t = private { mutable chunks : 'a array array; mutable len : int }
(** Slot [i] lives at [chunks.(i lsr bits).(i land (chunk - 1))], for
    [i < len].  The representation is visible, read-only, so that
    {!Bitpack} reaches a word of its hot fields without a call. *)

val bits : int
(** [chunk = 2^bits]. *)

val chunk : int
(** Slots per chunk. *)

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the last element; raises [Invalid_argument] when
    empty.  The chunk it leaves is kept for the next push. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit

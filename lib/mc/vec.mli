(** Growable arrays, the checker's workhorse store: configuration keys,
    per-state words, transition words and parent pointers all live in
    vectors indexed by configuration id.

    A vector grows in fixed chunks of {!chunk} slots, so a push never
    copies a long vector and leaves less than one chunk of slack.  Only
    the first chunk starts small (8 slots) and doubles up to {!chunk}, so
    a short vector costs no more than a plain growable array. *)

type 'a t

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

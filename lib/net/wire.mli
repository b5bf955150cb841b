(** Length-prefixed framing over a Unix file descriptor.

    A frame on the wire is a 4-byte big-endian body length followed by the
    body ({!Codec} frame).  Reads and writes handle short transfers and
    [EINTR]; a frame longer than {!max_frame} is refused without reading
    its body (resynchronisation is impossible at that point, so the
    runtime treats it as a dead peer rather than a transient fault). *)

val max_frame : int
(** Upper bound on an accepted body length (16 MiB). *)

val write : Unix.file_descr -> string -> unit
(** Write one frame (length prefix + body) at once, looping over short
    writes. *)

(** {2 Buffered connections}

    A connection pairs a descriptor with a write queue and a read buffer,
    so that a peer can queue many frames, hand them to the kernel in one
    write, and take many replies out of one read.  Both buffers start at
    512 bytes and grow to the largest batch or frame they have held.
    Nothing is written until {!flush}: a caller must flush whatever its
    peer waits for before it blocks in {!read}. *)

type conn

val conn : Unix.file_descr -> conn

val queue : conn -> string -> unit
(** Append one frame to the write queue. *)

val flush : conn -> unit
(** Write the whole queue, looping over short writes (a no-op when it is
    empty). *)

val has_frame : conn -> bool
(** The read buffer already holds a whole frame (or an oversized frame's
    length), so the next {!read} returns without touching the
    descriptor. *)

val read : conn -> (string, [ `Eof | `Truncated | `Oversized of int ]) result
(** The next frame body, reading the descriptor only when the buffer
    lacks it.  [`Eof] when the peer closed the descriptor at a frame
    boundary, [`Truncated] when it closed inside a frame, and
    [`Oversized len] as soon as a length above {!max_frame} is read. *)

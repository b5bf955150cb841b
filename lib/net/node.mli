(** The node runtime: one paper process as one OS process.

    A node owns exactly the per-process half of the state-dissemination
    transformation — its true core plus the per-neighbor cache, evaluated
    through {!Snapcc_mp.Mp_view} — and speaks the {!Codec} protocol over a
    single descriptor to the orchestrator.  It sends [Hello], waits for
    [Init] (whose frame tag selects the algorithm), replies [Ready], and
    then serves [Activate]/[Deliver]/[Corrupt] requests until [Bye].
    Replies are queued ({!Wire.queue}) and leave together just before
    the node blocks for its next request, so a batch of requests costs
    it one read and one write.

    Strictness as fault tolerance: a frame that fails {!Codec.decode} is
    answered with [Decode_error] and otherwise ignored — the snapshot it
    carried is simply lost, which the transformation already tolerates
    (caches are refreshed by later re-broadcasts).  The node never crashes
    on malformed input. *)

val serve : id:int -> Unix.file_descr -> unit
(** Run the node protocol to completion ([Bye] or orchestrator
    disconnect).  Does not close the descriptor. *)

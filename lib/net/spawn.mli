(** Launching and reaping the node processes.

    Two spawn modes:
    - [Fork]: each node is [Unix.fork]ed from the current process and
      speaks over a socketpair.  Used by the tests and the in-process
      benchmark — everything runs under [dune runtest] with no
      executable-path plumbing.
    - [Exec exe]: each node is [exe node --id I --connect PORT], dialing a
      TCP loopback listener on an ephemeral port — real separate
      executables, as [ccsim net] runs them (with
      [exe = Sys.executable_name]).

    In both modes {!launch} completes the [Hello] handshake, so the
    returned connections are ready for the [Init] exchange. *)

type mode = Fork | Exec of string

type node = { id : int; pid : int; fd : Unix.file_descr }

val launch : mode -> n:int -> node array * Wire.conn array
(** The nodes and a buffered connection over each node's descriptor,
    both indexed by node id.  In [Exec] mode both ends of every TCP
    connection set [TCP_NODELAY].  Raises [Failure] if a node fails to
    come up. *)

val fork_pool :
  n:int -> serve:(id:int -> Unix.file_descr -> unit) -> node array
(** The bare forking machinery behind [Fork]-mode {!launch}: [n] children,
    each connected to the parent by a socketpair and running
    [serve ~id child_fd] before [Unix._exit] (exit status 1 if [serve]
    raised).  No protocol is imposed on the descriptors — [launch] layers
    the [Hello] handshake on top; the statistical tier ([Snapcc_smc.Pool])
    streams length-prefixed result frames over them instead.  Reap with
    {!shutdown}. *)

val connect : port:int -> Unix.file_descr
(** Node-side dial for [Exec] mode ([ccsim node --connect PORT]), with
    [TCP_NODELAY] set. *)

val shutdown : node array -> unit
(** Close every descriptor and reap every pid (idempotent, never
    raises) — use after the [Bye] exchange, and on error paths after
    {!kill}. *)

val kill : node array -> unit
(** Force-terminate the nodes (SIGKILL); pair with {!shutdown}. *)

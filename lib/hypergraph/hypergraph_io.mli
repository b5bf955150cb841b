(** A small text format for committee systems, so downstream users can feed
    their own topologies to the simulator and the CLI.

    {v
    # professors are named by integer identifiers; one committee per line
    n 6
    ids 1 2 3 4 5 6        # optional; defaults to 0 .. n-1
    committee 1 2
    committee 1 2 3 4
    committee 2 4 5
    committee 3 6
    committee 4 6
    v}

    Committee members are given by {e identifier} (not vertex index).
    Blank lines and [#] comments are ignored. *)

val parse : string -> (Hypergraph.t, string) result
(** Parse the format from a string; the error mentions the offending
    line, or the cap ({!Hypergraph.max_professors},
    {!Hypergraph.max_committees}) the system is past. *)

val load : string -> (Hypergraph.t, string) result
(** Read and {!parse} a file. *)

val to_string : Hypergraph.t -> string
(** Render a hypergraph in the format; [parse (to_string h)] rebuilds an
    equal hypergraph. *)

val save : string -> Hypergraph.t -> unit

(** Versioned serialization of the exact tier's guard/footprint tables.

    The format ([snapcc-tables v1]) is line-oriented text: a header
    (algorithm, topology, process count, action labels, per-process domain
    sizes) followed by one block per process — either its packed entry
    tables (support, sizes, strides, and one run-length-encoded row per
    input mode) or the reason its pass was skipped or streamed.  Entry rows
    RLE-compress well because the dominant value is [-1] (no action
    enabled). *)

val magic : string
(** First line of every artifact: ["snapcc-tables v1"]. *)

val to_lines : Snapcc_mc.Tables.portable -> string list
val of_lines : string list -> (Snapcc_mc.Tables.portable, string) result
(** Inverse of {!to_lines}; [Error] describes the first malformation and
    no input raises.  A table's shape is checked before its rows are read
    (support ascending within the processes and holding its own, sizes
    positive with at most [2^27] (cell, mode) pairs, row-major strides,
    [Tables.nmodes] mode rows each of length [Π sizes]), and its rows are
    coded from their runs: more than [Tables.max_rows] distinct rows is an
    [Error]. *)

val save : string -> Snapcc_mc.Tables.portable -> unit
val load : string -> (Snapcc_mc.Tables.portable, string) result

(** Fixed-width unsigned fields packed into a bit string of 62-bit words,
    the model checker's one packing: configuration keys ({!Encode}), the
    explorer's per-configuration records and its in+out edges
    ({!Explore}).

    A {e record} has a fixed {!layout}: its fields in order, each at most
    62 bits wide, cut into as many words as their widths sum to (at least
    one), a field straddling two words where it crosses a boundary.
    Records live back to back in a vector, record [i] at words
    [i * words .. (i + 1) * words - 1], or one at a time in a scratch
    array.  An {e item stream} is a run of equal-width items (at most 62
    bits) with no padding: item [i] occupies bits [i * width] onwards of
    the vector, straddling where it crosses a word.  Every stored value
    must fit its width; {!set}, {!pack} and {!add_item} raise
    [Invalid_argument] otherwise. *)

val width : int -> int
(** [width v]: the bits a field needs to hold every value in [0 .. v]
    ([0] for [v = 0]); [Invalid_argument] for a negative [v]. *)

val bits_list : int -> int list
(** The positions of the set bits of a non-negative mask, ascending. *)

(** {2 Records} *)

type layout

val layout : int array -> layout
(** The record of fields with the given widths (each in [0 .. 62]), in
    order. *)

val words : layout -> int

val push : layout -> int Vec.t -> unit
(** Append a record with every field 0. *)

val get : layout -> int Vec.t -> int -> int -> int
(** [get l v i f]: field [f] of record [i]. *)

val set : layout -> int Vec.t -> int -> int -> int -> unit
(** [set l v i f x]: store [x] in field [f] of record [i], in place; the
    other fields keep their values. *)

val pack : layout -> int array -> int array -> unit
(** [pack l a values]: the record of [values] (one per field, in order) in
    the first [words l] entries of [a]. *)

val unpack : layout -> int Vec.t -> int -> int array
(** [unpack l v i]: every field of record [i], in order. *)

(** {2 Item streams} *)

val add_item : int Vec.t -> width:int -> int -> int -> unit
(** [add_item v ~width i x]: store [x] as item [i] of a stream whose items
    [0 .. i - 1] are already stored (and nothing past them), appending the
    word it needs. *)

val fold_items :
  int Vec.t -> width:int -> int -> int -> (int -> 'a -> 'a) -> 'a -> 'a
(** [fold_items v ~width lo hi f acc] is [f x_lo (f x_(lo+1) (… (f
    x_(hi-1) acc)))] over items [lo .. hi - 1], read from the last with a
    running cursor (no division per item, no allocation). *)

let word_bits = 62
let ones w = (1 lsl w) - 1
let word_mask = ones word_bits

let width v =
  if v < 0 then invalid_arg "Bitpack.width: negative";
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  go 0

let bits_list mask =
  let rec go p m acc =
    if m = 0 then List.rev acc
    else go (p + 1) (m lsr 1) (if m land 1 = 1 then p :: acc else acc)
  in
  go 0 mask []

(* Word [j] of [v], read and written through the vector's chunks: the
   explorer reaches a field once per transition, and a module compiled
   with [-opaque] (dune's dev profile) never inlines [Vec.get]. *)
let[@inline] word (v : int Vec.t) j =
  if j >= v.Vec.len then invalid_arg "Bitpack: word out of bounds";
  v.Vec.chunks.(j lsr Vec.bits).(j land (Vec.chunk - 1))

let[@inline] set_word (v : int Vec.t) j x =
  if j >= v.Vec.len then invalid_arg "Bitpack: word out of bounds";
  v.Vec.chunks.(j lsr Vec.bits).(j land (Vec.chunk - 1)) <- x

(* The [w] bits at bit [s] of word [j], spilling into word [j + 1]. *)
let[@inline] load v j s w =
  let x = word v j lsr s in
  let x = if s + w > word_bits then x lor (word v (j + 1) lsl (word_bits - s)) else x in
  x land ones w

let[@inline] check w x =
  if x < 0 || x lsr w <> 0 then invalid_arg "Bitpack: value wider than its field"

let[@inline] store v j s w x =
  check w x;
  set_word v j ((word v j land lnot (ones w lsl s)) lor (x lsl s) land word_mask);
  if s + w > word_bits then begin
    let k = word_bits - s in
    set_word v (j + 1) ((word v (j + 1) land lnot (ones (w - k))) lor (x lsr k))
  end

(* Field [f] starts at bit [shift.(f)] of word [word.(f)] of its record. *)
type layout = {
  words : int;
  width : int array;
  word : int array;
  shift : int array;
}

let layout widths =
  let nf = Array.length widths in
  let word = Array.make nf 0 and shift = Array.make nf 0 in
  let off = ref 0 in
  Array.iteri
    (fun f w ->
      if w < 0 || w > word_bits then invalid_arg "Bitpack.layout: field width";
      word.(f) <- !off / word_bits;
      shift.(f) <- !off mod word_bits;
      off := !off + w)
    widths;
  { words = max 1 ((!off + word_bits - 1) / word_bits);
    width = Array.copy widths;
    word;
    shift }

let words l = l.words

let push l v =
  for _ = 1 to l.words do
    Vec.push v 0
  done

let get l v i f = load v ((i * l.words) + l.word.(f)) l.shift.(f) l.width.(f)
let set l v i f x = store v ((i * l.words) + l.word.(f)) l.shift.(f) l.width.(f) x

let pack l a values =
  Array.fill a 0 l.words 0;
  for f = 0 to Array.length values - 1 do
    let j = l.word.(f) and s = l.shift.(f) and x = values.(f) in
    check l.width.(f) x;
    a.(j) <- a.(j) lor ((x lsl s) land word_mask);
    if s + l.width.(f) > word_bits then
      a.(j + 1) <- a.(j + 1) lor (x lsr (word_bits - s))
  done

let unpack l v i =
  let base = i * l.words in
  Array.init (Array.length l.width) (fun f ->
      load v (base + l.word.(f)) l.shift.(f) l.width.(f))

let add_item v ~width i x =
  let pos = i * width in
  if pos + width > v.Vec.len * word_bits then Vec.push v 0;
  store v (pos / word_bits) (pos mod word_bits) width x

let fold_items v ~width lo hi f acc =
  if hi <= lo then acc
  else begin
    let pos = (hi - 1) * width in
    let j = ref (pos / word_bits) and s = ref (pos mod word_bits) in
    let acc = ref acc in
    for _ = lo to hi - 1 do
      acc := f (load v !j !s width) !acc;
      s := !s - width;
      if !s < 0 then begin
        s := !s + word_bits;
        decr j
      end
    done;
    !acc
  end

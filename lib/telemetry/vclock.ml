type t = int array

let create n = Array.make n 0
let copy = Array.copy
let tick c p = c.(p) <- c.(p) + 1

(* The annotations matter: without them these compile to polymorphic
   comparisons ([caml_greaterthan] per component). *)
let merge_into ~(into : int array) (src : int array) =
  let n = Array.length into in
  if Array.length src <> n then invalid_arg "Vclock.merge_into: length";
  for i = 0 to n - 1 do
    if src.(i) > into.(i) then into.(i) <- src.(i)
  done

let merge a b =
  let c = copy a in
  merge_into ~into:c b;
  c

let leq (a : int array) (b : int array) =
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then ok := false
  done;
  !ok

type order =
  | Equal
  | Before
  | After
  | Concurrent

let compare_clocks a b =
  match (leq a b, leq b a) with
  | true, true -> Equal
  | true, false -> Before
  | false, true -> After
  | false, false -> Concurrent

(* Not [Array.to_list]: that is generic (it tests every read for a float
   array) and allocates a closure per call; a [clock] event is built on
   every stamp. *)
let rec prepend (c : int array) i acc =
  if i < 0 then acc else prepend c (i - 1) (Array.unsafe_get c i :: acc)

let to_list c = prepend c (Array.length c - 1) []

let of_list = Array.of_list

let to_string c =
  "[" ^ String.concat "," (List.map string_of_int (to_list c)) ^ "]"

(* Wire codec: a one-byte form tag followed by LEB128 varints.  Form 0
   carries the full vector (count, then every component); form 1 carries a
   sparse delta against a base the receiver already holds (count of changed
   components, then (index, positive increment) pairs).  Deltas are the
   common case on a link — a sender's clock only grows between frames — and
   cost two bytes per changed component for small clocks. *)

let w_varint buf v =
  if v < 0 then invalid_arg "Vclock: negative component";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* Returns [None] on truncation or on a varint wider than an OCaml int. *)
let r_varint s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len || shift > 56 then None
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, pos + 1)
      else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

let encode_full c =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '\000';
  w_varint buf (Array.length c);
  Array.iter (w_varint buf) c;
  Buffer.contents buf

(* [None] when the delta is not expressible (length mismatch or a component
   that shrank — possible under link reordering, where an older frame is
   encoded against a newer acknowledged base). *)
let encode_delta ~base c =
  let n = Array.length c in
  if Array.length base <> n then None
  else begin
    let shrank = ref false in
    let changed = ref 0 in
    for i = 0 to n - 1 do
      if c.(i) < base.(i) then shrank := true
      else if c.(i) > base.(i) then incr changed
    done;
    if !shrank then None
    else begin
      let buf = Buffer.create 8 in
      Buffer.add_char buf '\001';
      w_varint buf !changed;
      for i = 0 to n - 1 do
        if c.(i) > base.(i) then begin
          w_varint buf i;
          w_varint buf (c.(i) - base.(i))
        end
      done;
      Some (Buffer.contents buf)
    end
  end

(* Prefer the delta form when it is expressible and no larger. *)
let encode_wire ?base c =
  let full = encode_full c in
  match Option.bind base (fun b -> encode_delta ~base:b c) with
  | Some d when String.length d <= String.length full -> d
  | _ -> full

let decode_full s =
  if String.length s = 0 || s.[0] <> '\000' then None
  else
    match r_varint s 1 with
    | None -> None
    | Some (n, pos) ->
      if n < 0 || n > 0xffff then None
      else
        let c = Array.make n 0 in
        let rec go i pos =
          if i = n then if pos = String.length s then Some c else None
          else
            match r_varint s pos with
            | None -> None
            | Some (v, pos) ->
              c.(i) <- v;
              go (i + 1) pos
        in
        go 0 pos

let apply_delta ~base s =
  if String.length s = 0 || s.[0] <> '\001' then None
  else
    match r_varint s 1 with
    | None -> None
    | Some (changed, pos) ->
      let c = copy base in
      let n = Array.length c in
      let rec go k pos =
        if k = changed then if pos = String.length s then Some c else None
        else
          match r_varint s pos with
          | None -> None
          | Some (i, pos) -> (
            if i < 0 || i >= n then None
            else
              match r_varint s pos with
              | None -> None
              | Some (d, pos) ->
                if d <= 0 then None
                else begin
                  c.(i) <- c.(i) + d;
                  go (k + 1) pos
                end)
      in
      go 0 pos

let decode_wire ?base s =
  if String.length s = 0 then None
  else
    match s.[0] with
    | '\000' -> decode_full s
    | '\001' -> Option.bind base (fun b -> apply_delta ~base:b s)
    | _ -> None

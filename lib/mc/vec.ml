(* Slot [i] lives at [chunks.(i lsr bits).(i land (chunk - 1))].  Chunk 0
   doubles from 8 slots up to [chunk]; every later chunk is allocated at
   full size, so only that first small chunk is ever copied. *)

let bits = 16
let chunk = 1 lsl bits

type 'a t = { mutable chunks : 'a array array; mutable len : int }

let create () = { chunks = [||]; len = 0 }
let length v = v.len

let push v x =
  let i = v.len in
  let c = i lsr bits in
  if c = Array.length v.chunks then
    v.chunks <- Array.append v.chunks [| Array.make (if c = 0 then 8 else chunk) x |]
  else if c = 0 && i = Array.length v.chunks.(0) then begin
    let d = Array.make (2 * i) x in
    Array.blit v.chunks.(0) 0 d 0 i;
    v.chunks.(0) <- d
  end;
  v.chunks.(c).(i land (chunk - 1)) <- x;
  v.len <- i + 1

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.chunks.(i lsr bits).(i land (chunk - 1))
let set v i x = check v i; v.chunks.(i lsr bits).(i land (chunk - 1)) <- x

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  let x = get v (v.len - 1) in
  v.len <- v.len - 1;
  x

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (get v i)
  done

type elem = {
  name : string;
  pi : int array;
  eperm : int array;
  sigma : int array array;
}

type group = { elems : elem array; gens : elem list; complete : bool }

let identity ~n ~m ~domains =
  { name = "id";
    pi = Array.init n Fun.id;
    eperm = Array.init m Fun.id;
    sigma = Array.init n (fun p -> Array.init domains.(p) Fun.id) }

let is_identity g =
  let idp a = Array.for_all Fun.id (Array.mapi (fun i x -> i = x) a) in
  idp g.pi && idp g.eperm && Array.for_all idp g.sigma

(* [compose g f] = g ∘ f: first f, then g.  (g∘f).pi = g.pi ∘ f.pi, and
   process p's transport first applies f's (landing at f.pi p), then g's
   transport of that process. *)
let compose g f =
  let n = Array.length f.pi in
  { name = (if g.name = "id" then f.name
            else if f.name = "id" then g.name
            else g.name ^ "." ^ f.name);
    pi = Array.init n (fun p -> g.pi.(f.pi.(p)));
    eperm = Array.init (Array.length f.eperm) (fun e -> g.eperm.(f.eperm.(e)));
    sigma =
      Array.init n (fun p ->
          let gf = g.sigma.(f.pi.(p)) and fs = f.sigma.(p) in
          Array.init (Array.length fs) (fun i -> gf.(fs.(i)))) }

let invert g =
  let inv a =
    let r = Array.make (Array.length a) 0 in
    Array.iteri (fun i x -> r.(x) <- i) a;
    r
  in
  let n = Array.length g.pi in
  let sigma = Array.make n [||] in
  Array.iteri (fun p s -> sigma.(g.pi.(p)) <- inv s) g.sigma;
  { name = g.name ^ "'"; pi = inv g.pi; eperm = inv g.eperm; sigma }

let close ?(cap = 4096) ~n ~m ~domains gens =
  let id = identity ~n ~m ~domains in
  let tbl = Hashtbl.create 64 in
  let key g = (g.pi, g.sigma) in
  let out = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let add g =
    if not (Hashtbl.mem tbl (key g)) then begin
      Hashtbl.add tbl (key g) ();
      out := g :: !out;
      incr count;
      Queue.add g queue
    end
  in
  add id;
  List.iter add gens;
  let complete = ref true in
  (try
     while not (Queue.is_empty queue) do
       let g = Queue.pop queue in
       List.iter
         (fun f ->
           if !count >= cap then raise Exit;
           add (compose f g))
         gens
     done
   with Exit -> complete := false);
  (* identity first: canonicalization probes it before anything else, and
     certificates print deterministically *)
  let elems =
    List.sort
      (fun a b ->
        match (is_identity a, is_identity b) with
        | true, false -> -1
        | false, true -> 1
        | _ -> compare (a.pi, a.sigma) (b.pi, b.sigma))
      !out
  in
  { elems = Array.of_list elems; gens; complete = !complete }

let trivial ~n ~m ~domains =
  { elems = [| identity ~n ~m ~domains |]; gens = []; complete = true }

let order g = Array.length g.elems

let apply g x =
  let n = Array.length x in
  let y = Array.make n 0 in
  for p = 0 to n - 1 do
    y.(g.pi.(p)) <- g.sigma.(p).(x.(p))
  done;
  y

let in_domain grp x =
  let sigma = grp.elems.(0).sigma in
  let ok = ref true in
  for p = 0 to Array.length x - 1 do
    if x.(p) >= Array.length sigma.(p) then ok := false
  done;
  !ok

(* [a] before [b] lexicographically, from position [p] on. *)
let rec lex_less (a : int array) (b : int array) p =
  p < Array.length a
  && (a.(p) < b.(p) || (a.(p) = b.(p) && lex_less a b (p + 1)))

let canonical_into grp x ~rep ~cand =
  let n = Array.length x in
  Array.blit x 0 rep 0 n;
  let best = ref 0 in
  (* elems.(0) is the identity: start from x itself *)
  for gi = 1 to Array.length grp.elems - 1 do
    let g = grp.elems.(gi) in
    for p = 0 to n - 1 do
      cand.(g.pi.(p)) <- g.sigma.(p).(x.(p))
    done;
    if lex_less cand rep 0 then begin
      Array.blit cand 0 rep 0 n;
      best := gi
    end
  done;
  !best

let canonical grp x =
  let n = Array.length x in
  let rep = Array.make n 0 in
  let gi = canonical_into grp x ~rep ~cand:(Array.make n 0) in
  (rep, gi)

let map_mask eperm mask =
  let r = ref 0 in
  for e = 0 to Array.length eperm - 1 do
    if mask land (1 lsl e) <> 0 then r := !r lor (1 lsl eperm.(e))
  done;
  !r

let inverse_map_mask eperm mask =
  let r = ref 0 in
  for e = 0 to Array.length eperm - 1 do
    if mask land (1 lsl eperm.(e)) <> 0 then r := !r lor (1 lsl e)
  done;
  !r

module H = Snapcc_hypergraph.Hypergraph

let id_bits = 40

module Make (Sys : System.S) = struct
  module Tbl = Hashtbl.Make (struct
    type t = Sys.state

    let equal = Sys.equal_state
    let hash = Hashtbl.hash
  end)

  type proc_store = { tbl : int Tbl.t; states : Sys.state Vec.t }

  type t = {
    h : H.t;
    procs : proc_store array;
    dom : int array;  (** declared-domain sizes *)
    width : int array;  (** key bits per process *)
    key : Bitpack.layout;  (** one field per process *)
    kw : int;  (** key words *)
  }

  let n t = Array.length t.procs
  let key_words t = t.kw
  let domain_count t p = t.dom.(p)
  let count t p = Vec.length t.procs.(p).states
  let state t p id = Vec.get t.procs.(p).states id

  let product_size t =
    Array.fold_left (fun acc d -> acc *. float_of_int d) 1.0 t.dom

  (* A key is a {!Bitpack} record with one field per process, which may
     straddle two words. *)
  let layout h procs dom width =
    let key = Bitpack.layout width in
    { h; procs; dom; width; key; kw = Bitpack.words key }

  let raw_intern t p s =
    let ps = t.procs.(p) in
    match Tbl.find_opt ps.tbl s with
    | Some id -> id
    | None ->
      let id = Vec.length ps.states in
      if id >= 1 lsl t.width.(p) then
        failwith
          (Printf.sprintf
             "Mc.Encode: process %d exceeded %d interned states (declared \
              domain %d): the domain declaration is not remotely closed"
             p (1 lsl t.width.(p)) t.dom.(p));
      Tbl.add ps.tbl s id;
      Vec.push ps.states s;
      id

  let intern t p s = raw_intern t p (Sys.canon t.h p s)
  let find t p s = Tbl.find_opt t.procs.(p).tbl (Sys.canon t.h p s)

  let create h =
    let n = H.n h in
    let procs =
      Array.init n (fun _ -> { tbl = Tbl.create 256; states = Vec.create () })
    in
    let domains = Array.init n (fun p -> Sys.domain h p) in
    let dom = Array.map List.length domains in
    (* 4x headroom so a few escapees don't break the packing *)
    let width = Array.map (fun d -> Bitpack.width ((4 * max 1 d) - 1)) dom in
    let t = layout h procs dom width in
    Array.iteri
      (fun p states ->
        List.iter (fun s -> ignore (raw_intern t p (Sys.canon h p s))) states;
        (* duplicates (after canon) in the declared list shrink the domain *)
        t.dom.(p) <- count t p)
      domains;
    t

  let on_demand ~width h =
    let n = H.n h in
    layout h
      (Array.init n (fun _ -> { tbl = Tbl.create 256; states = Vec.create () }))
      (Array.make n 0) (Array.make n width)

  let escapees t =
    List.concat
      (List.init (n t) (fun p ->
           List.init
             (count t p - t.dom.(p))
             (fun i -> (p, state t p (t.dom.(p) + i)))))

  (* Open addressing with linear probing.  A slot holds [-1] (empty) or
     a configuration id in its low [id_bits] bits under 22 bits of its
     key's hash, so a probe that misses seldom reads a key.  [keys] holds
     [kw] words per configuration id; [slots] doubles before it gets more
     than three quarters full. *)
  type table = {
    enc : t;
    key : int array;  (** the key being looked up or rehashed *)
    keys : int Vec.t;
    mutable slots : int array;
    mutable cnt : int;
  }

  let cid_mask = (1 lsl id_bits) - 1
  let tag_mask = ((1 lsl (62 - id_bits)) - 1) lsl id_bits

  let table t =
    { enc = t; key = Array.make t.kw 0; keys = Vec.create ();
      slots = Array.make 4096 (-1); cnt = 0 }

  let table_count tb = tb.cnt

  let pack tb cfg = Bitpack.pack tb.enc.key tb.key cfg
  let config_ids tb cid = Bitpack.unpack tb.enc.key tb.keys cid

  (* Multiplicative hashing of [tb.key], word by word, with the high bits
     folded down before and after each multiplication. *)
  let hash tb =
    let x = ref 0 in
    for j = 0 to tb.enc.kw - 1 do
      let y = !x lxor tb.key.(j) in
      let y = (y lxor (y lsr 32)) * 0x2545F4914F6CDD1D in
      x := y lxor (y lsr 29)
    done;
    !x

  let stored_key_is tb cid =
    let base = cid * tb.enc.kw in
    let j = ref 0 in
    while !j < tb.enc.kw && Vec.get tb.keys (base + !j) = tb.key.(!j) do
      incr j
    done;
    !j = tb.enc.kw

  (* The slot holding [tb.key] (hashed to [x]), or the empty one where it
     belongs. *)
  let probe tb x =
    let slots = tb.slots in
    let mask = Array.length slots - 1 and tag = x land tag_mask in
    let i = ref (x land mask) in
    while
      let c = slots.(!i) in
      c >= 0
      && not (c land tag_mask = tag && stored_key_is tb (c land cid_mask))
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow tb =
    let kw = tb.enc.kw in
    tb.slots <- Array.make (2 * Array.length tb.slots) (-1);
    for cid = 0 to tb.cnt - 1 do
      for j = 0 to kw - 1 do
        tb.key.(j) <- Vec.get tb.keys ((cid * kw) + j)
      done;
      let x = hash tb in
      tb.slots.(probe tb x) <- (x land tag_mask) lor cid
    done

  let find_or_add tb cfg =
    pack tb cfg;
    let x = hash tb in
    let i = probe tb x in
    let c = tb.slots.(i) in
    if c >= 0 then c land cid_mask
    else begin
      let cid = tb.cnt in
      for j = 0 to tb.enc.kw - 1 do
        Vec.push tb.keys tb.key.(j)
      done;
      tb.cnt <- cid + 1;
      if 4 * tb.cnt > 3 * Array.length tb.slots then grow tb
      else tb.slots.(i) <- (x land tag_mask) lor cid;
      cid
    end
end

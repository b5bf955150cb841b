module H = Snapcc_hypergraph.Hypergraph
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry
module Vclock = Snapcc_telemetry.Vclock

type decision =
  | Activate of int
  | Deliver of int * int

type 's config = {
  cores : 's array;
  caches : 's array array;
  in_flight : 's option array array;
}

type 's corruption = {
  core : 's;
  cache : 's array;
  forged : 's option array;
}

type clocks = {
  vc : Vclock.t array;
  hub : Tele.Hub.t option;
  observe : int -> Obs.t;
  mutable init_stamped : bool;
}

type t = {
  h : H.t;
  n : int;
  rng : Random.State.t;
  deliver_bias : float;
  idle_for : int array;  (* activation starvation counter per process *)
  cache_age : int array array;  (* steps since cache.(p).(i) was refreshed *)
  peer_slot : int array array;
      (* peer_slot.(p).(i): p's slot in the neighbor array of its i-th
         neighbor *)
  pend_dst : int array;
  pend_slot : int array;
      (* [decide]'s work arrays: the pending links, in descending order *)
  mutable clocks : clocks option;
  mutable steps : int;
  mutable worst_staleness : int;
}

let create ?(deliver_bias = 0.5) ~seed h =
  let n = H.n h in
  let slot_in q p =
    let nbrs = H.neighbors h q in
    let rec find i = if nbrs.(i) = p then i else find (i + 1) in
    find 0
  in
  let links = Array.fold_left ( + ) 0 (Array.init n (H.graph_degree h)) in
  {
    h;
    n;
    (* the historical seeding vector: replaying a run means replaying
       these draws *)
    rng = Random.State.make [| seed; n; 0x3b |];
    deliver_bias;
    idle_for = Array.make n 0;
    cache_age = Array.init n (fun p -> Array.make (H.graph_degree h p) 0);
    peer_slot =
      Array.init n (fun p -> Array.map (fun q -> slot_in q p) (H.neighbors h p));
    pend_dst = Array.make links 0;
    pend_slot = Array.make links 0;
    clocks = None;
    steps = 0;
    worst_staleness = 0;
  }

let steps t = t.steps
let max_staleness t = t.worst_staleness
let peer_slot t p i = t.peer_slot.(p).(i)
let fairness_bound t = 16 * t.n

(* ---- random configurations ---- *)

(* one coin per link, and on heads a snapshot "from" the neighbor *)
let forge t ~random nbrs =
  Array.map
    (fun q -> if Random.State.bool t.rng then Some (random t.rng q) else None)
    nbrs

let initial t init ~canonical ~random =
  let nbrs = H.neighbors t.h in
  match init with
  | `Canonical ->
    let cores = Array.init t.n canonical in
    { cores;
      caches = Array.init t.n (fun p -> Array.map (Array.get cores) (nbrs p));
      in_flight = Array.init t.n (fun p -> Array.map (fun _ -> None) (nbrs p)) }
  | `Random ->
    let cores = Array.init t.n (random t.rng) in
    let caches = Array.init t.n (fun p -> Array.map (random t.rng) (nbrs p)) in
    let in_flight = Array.init t.n (fun p -> forge t ~random (nbrs p)) in
    { cores; caches; in_flight }

let corruption t ~random p =
  let nbrs = H.neighbors t.h p in
  let core = random t.rng p in
  let cache = Array.map (random t.rng) nbrs in
  { core; cache; forged = forge t ~random nbrs }

(* ---- scheduler ---- *)

let begin_step t =
  t.steps <- t.steps + 1;
  for p = 0 to t.n - 1 do
    t.idle_for.(p) <- t.idle_for.(p) + 1;
    let ages = t.cache_age.(p) in
    for i = 0 to Array.length ages - 1 do
      let a = ages.(i) + 1 in
      ages.(i) <- a;
      if a > t.worst_staleness then t.worst_staleness <- a
    done
  done

(* Forced events first: the lowest starving process, else the greatest
   stale pending link.  Otherwise a coin chooses between delivering a
   pending link, uniformly at its rank in descending (receiver, slot)
   order, and activating a uniform process. *)
let decide t ~pending =
  let bound = fairness_bound t in
  let starving = ref 0 in
  while !starving < t.n && t.idle_for.(!starving) < bound do
    incr starving
  done;
  if !starving < t.n then Activate !starving
  else begin
    let count = ref 0 and stale = ref (-1) and stale_slot = ref 0 in
    let p = ref (t.n - 1) in
    while !stale < 0 && !p >= 0 do
      let ages = t.cache_age.(!p) in
      let i = ref (Array.length ages - 1) in
      while !stale < 0 && !i >= 0 do
        if pending !p !i then
          if ages.(!i) >= bound then begin
            stale := !p;
            stale_slot := !i
          end
          else begin
            t.pend_dst.(!count) <- !p;
            t.pend_slot.(!count) <- !i;
            incr count
          end;
        decr i
      done;
      decr p
    done;
    if !stale >= 0 then Deliver (!stale, !stale_slot)
    else if !count > 0 && Random.State.float t.rng 1.0 < t.deliver_bias then begin
      let k = Random.State.int t.rng !count in
      Deliver (t.pend_dst.(k), t.pend_slot.(k))
    end
    else Activate (Random.State.int t.rng t.n)
  end

(* ---- vector clocks ---- *)

let track_clocks t ?hub observe =
  let vc =
    Array.init t.n (fun p ->
        let c = Vclock.create t.n in
        Vclock.tick c p;
        c)
  in
  t.clocks <- Some { vc; hub; observe; init_stamped = false }

let clock t p =
  match t.clocks with
  | Some c -> c.vc.(p)
  | None -> invalid_arg "Mp_semantics.clock: clocks are not tracked"

let stamp t ~k p =
  match t.clocks with
  | Some { vc; hub = Some hub; observe; _ } ->
    let o = observe p in
    Tele.Hub.emit hub
      (Tele.Event.Clock
         { step = t.steps; p; k; clock = Vclock.to_list vc.(p);
           obs_code = Obs.code o; disc = o.Obs.discussions })
  | Some { hub = None; _ } | None -> ()

let stamp_initial t =
  match t.clocks with
  | Some c when not c.init_stamped ->
    c.init_stamped <- true;
    for p = 0 to t.n - 1 do
      stamp t ~k:Tele.Event.clock_init p
    done
  | _ -> ()

let tick t p = match t.clocks with Some c -> Vclock.tick c.vc.(p) p | None -> ()

let on_activated t p ~acted =
  t.idle_for.(p) <- 0;
  if acted then tick t p

let on_delivered t ~dst ~slot ~carried =
  t.cache_age.(dst).(slot) <- 0;
  match t.clocks with
  | Some c ->
    Vclock.merge_into ~into:c.vc.(dst) carried;
    Vclock.tick c.vc.(dst) dst
  | None -> ()

let on_corrupted t p =
  tick t p;
  stamp t ~k:Tele.Event.clock_corruption p

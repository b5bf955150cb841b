module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Obs = Snapcc_runtime.Obs
module Tele = Snapcc_telemetry
module Vclock = Snapcc_telemetry.Vclock
module Sem = Mp_semantics

module Make (A : Model.ALGO) = struct
  module View = Mp_view.Make (A)

  type event =
    | Activated of int * string option
    | Delivered of int * int

  type t = {
    h : H.t;
    sem : Sem.t;  (* scheduler, draws and clocks: the shared semantics *)
    telemetry : Tele.Hub.t option;
    views : View.t array;  (* per-process core + per-neighbor cache *)
    chan : A.state option array array;  (* chan.(p).(i): pending from i-th neighbor *)
    pending : int -> int -> bool;  (* [chan] as the scheduler reads it *)
    mutable carried : int array array array option;
        (* what stamping needs beside the semantics' clocks: carried.(p).(i)
           is the clock the snapshot pending in chan.(p).(i) carried, as
           flat preallocated rows (the per-broadcast capture is a plain
           copy, with no allocation and no write barrier) *)
    mutable proj : Obs.t array;
    mutable stale : bool;
        (* [proj] is the observation of the cores unless [stale]: an acted
           activation or a corruption sets it, {!obs} re-projects *)
    mutable sent : int;
    mutable delivered : int;
    mutable prof_activations : int;
    mutable prof_deliveries : int;
  }

  (* The whole configuration is re-projected, not only the process that
     changed: an [observe] may read non-neighbours (vring's token flag). *)
  let obs t =
    if t.stale then begin
      let cores = Array.map View.core t.views in
      t.proj <- Array.init (H.n t.h) (A.observe t.h cores);
      t.stale <- false
    end;
    t.proj

  (* [packed] is accepted and ignored: kept for bench/perf; ROADMAP item
     1 removes it. *)
  let create ?(seed = 0) ?(init = `Canonical) ?(deliver_bias = 0.5) ?telemetry
      ?(vclock = true) ?packed:_ h =
    let n = H.n h in
    let sem = Sem.create ~deliver_bias ~seed h in
    let c0 = Sem.initial sem init ~canonical:(A.init h) ~random:(A.random_init h) in
    let views =
      Array.init n (fun p ->
          View.create h ~self:p ~core:c0.Sem.cores.(p) ~cache:c0.Sem.caches.(p))
    in
    let chan = c0.Sem.in_flight in
    let t =
      { h; sem; telemetry; views; chan;
        pending = (fun p i -> Option.is_some chan.(p).(i));
        carried = None; proj = [||]; stale = true; sent = 0; delivered = 0;
        prof_activations = 0; prof_deliveries = 0 }
    in
    (match telemetry with
     | Some hub when vclock ->
       Sem.track_clocks sem ~hub (fun p -> (obs t).(p));
       (* randomly preloaded snapshots carry the sender's initial clock *)
       t.carried <-
         Some
           (Array.init n (fun p ->
                Array.map (fun q -> Vclock.copy (Sem.clock sem q)) (H.neighbors h p)))
     | _ -> ());
    t

  let hypergraph t = t.h

  let steps_taken t = Sem.steps t.sem
  let messages_delivered t = t.delivered
  let messages_sent t = t.sent
  let max_staleness t = Sem.max_staleness t.sem

  let profile t =
    [ ("mp_pk_hits", 0);
      ("mp_activations", t.prof_activations);
      ("mp_deliveries", t.prof_deliveries) ]

  let in_flight t =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun a m -> if m = None then a else a + 1) acc row)
      0 t.chan

  let emit t ev =
    match t.telemetry with None -> () | Some hub -> Tele.Hub.emit hub ev

  (* int-typed: a generic array copy would check for float arrays and run
     the write barrier per component *)
  let copy_into ~(dst : int array) (src : int array) =
    for j = 0 to Array.length src - 1 do
      Array.unsafe_set dst j (Array.unsafe_get src j)
    done

  let broadcast t p =
    let nbrs = H.neighbors t.h p in
    let msg = Some (View.core t.views.(p)) in
    for i = 0 to Array.length nbrs - 1 do
      let q = nbrs.(i) and slot = Sem.peer_slot t.sem p i in
      (match t.carried with
       | Some carried -> copy_into ~dst:carried.(q).(slot) (Sem.clock t.sem p)
       | None -> ());
      t.chan.(q).(slot) <- msg;
      t.sent <- t.sent + 1
    done

  let activate t ~inputs p =
    t.prof_activations <- t.prof_activations + 1;
    let label = View.activate t.views.(p) ~inputs in
    (* a no-op activation is a heartbeat, not an event *)
    let acted = Option.is_some label in
    if acted then t.stale <- true;
    Sem.on_activated t.sem p ~acted;
    broadcast t p;
    emit t (Tele.Event.Mp_activated { step = Sem.steps t.sem; p; label });
    if acted then Sem.stamp t.sem ~k:Tele.Event.clock_activation p;
    Activated (p, label)

  (* the scheduler delivers pending links only *)
  let deliver t p i =
    let msg = Option.get t.chan.(p).(i) in
    t.prof_deliveries <- t.prof_deliveries + 1;
    View.refresh t.views.(p) ~slot:i msg;
    let src = (H.neighbors t.h p).(i) in
    Sem.on_delivered t.sem ~dst:p ~slot:i
      ~carried:(match t.carried with Some c -> c.(p).(i) | None -> [||]);
    t.chan.(p).(i) <- None;
    t.delivered <- t.delivered + 1;
    emit t (Tele.Event.Mp_delivered { step = Sem.steps t.sem; dst = p; src });
    Sem.stamp t.sem ~k:Tele.Event.clock_delivery p;
    Delivered (p, src)

  let step t ~inputs =
    Sem.stamp_initial t.sem;
    Sem.begin_step t.sem;
    match Sem.decide t.sem ~pending:t.pending with
    | Sem.Activate p -> activate t ~inputs p
    | Sem.Deliver (p, i) -> deliver t p i

  let corrupt t ~victims =
    (* every victim is checked before anything is emitted, drawn or
       written: a rejected call leaves the engine as it was *)
    if List.exists (fun p -> p < 0 || p >= H.n t.h) victims then
      invalid_arg "mp corrupt: bad victim";
    Sem.stamp_initial t.sem;
    emit t (Tele.Event.Fault { step = Sem.steps t.sem; victims });
    List.iter
      (fun p ->
        let d = Sem.corruption t.sem ~random:(A.random_init t.h) p in
        let nbrs = H.neighbors t.h p in
        View.set_core t.views.(p) d.Sem.core;
        Array.iteri (fun i st -> View.refresh t.views.(p) ~slot:i st) d.Sem.cache;
        Array.iteri
          (fun i forged ->
            if Option.is_some forged then begin
              (match t.carried with
               | Some carried ->
                 copy_into ~dst:carried.(p).(i) (Sem.clock t.sem nbrs.(i))
               | None -> ());
              t.chan.(p).(i) <- forged
            end)
          d.Sem.forged;
        t.stale <- true;
        Sem.on_corrupted t.sem p)
      victims
end

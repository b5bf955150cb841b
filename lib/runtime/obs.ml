module H = Snapcc_hypergraph.Hypergraph

type status = Idle | Looking | Waiting | Done

type t = {
  status : status;
  pointer : int option;
  token_flag : bool;
  locked : bool;
  has_token : bool;
  discussions : int;
}

let make ?(pointer = None) ?(token_flag = false) ?(locked = false)
    ?(has_token = false) ?(discussions = 0) status =
  { status; pointer; token_flag; locked; has_token; discussions }

(* Dense packing of everything but [discussions] (which is unbounded):
   2 status bits, 3 flag bits, then the pointer biased by one.  The causal
   tracing layer ships observations as [(code, discussions)] pairs on Clock
   events; [of_code] is its exact inverse. *)
let status_code = function Idle -> 0 | Looking -> 1 | Waiting -> 2 | Done -> 3

let code o =
  status_code o.status
  lor (if o.token_flag then 4 else 0)
  lor (if o.locked then 8 else 0)
  lor (if o.has_token then 16 else 0)
  lor ((match o.pointer with None -> 0 | Some e -> e + 1) lsl 5)

let of_code ~code ~discussions =
  {
    status =
      (match code land 3 with
       | 0 -> Idle
       | 1 -> Looking
       | 2 -> Waiting
       | _ -> Done);
    token_flag = code land 4 <> 0;
    locked = code land 8 <> 0;
    has_token = code land 16 <> 0;
    pointer = (match code lsr 5 with 0 -> None | e -> Some (e - 1));
    discussions;
  }

let equal a b =
  a.status = b.status && a.pointer = b.pointer && a.token_flag = b.token_flag
  && a.locked = b.locked && a.has_token = b.has_token
  && a.discussions = b.discussions

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
     | Idle -> "idle"
     | Looking -> "looking"
     | Waiting -> "waiting"
     | Done -> "done")

let pp ppf o =
  Format.fprintf ppf "%a%s%s%s%s" pp_status o.status
    (match o.pointer with None -> "" | Some e -> Printf.sprintf " ->e%d" e)
    (if o.token_flag then " T" else "")
    (if o.locked then " L" else "")
    (if o.has_token then " (token)" else "")

let is_waiting o = match o.status with Looking | Waiting -> true | Idle | Done -> false

(* Members [i..] of [eid] all point at it with status waiting or done;
   matching on the pointer allocates no [Some eid] and calls no
   polymorphic equality. *)
let rec all_meet obs members eid i =
  i >= Array.length members
  ||
  let o = obs.(members.(i)) in
  (match o.pointer with Some e -> e = eid | None -> false)
  && (match o.status with Waiting | Done -> true | Idle | Looking -> false)
  && all_meet obs members eid (i + 1)

let meets h obs eid = all_meet obs (H.edge_members h eid) eid 0

let committee_waiting h obs =
  let rec from e =
    e < H.m h
    && (Array.for_all (fun q -> is_waiting obs.(q)) (H.edge_members h e)
       || from (e + 1))
  in
  from 0

let meetings h obs =
  List.filter (meets h obs) (List.init (H.m h) Fun.id)

let participants h obs =
  let in_meeting = Array.make (Array.length obs) false in
  List.iter
    (fun eid -> Array.iter (fun q -> in_meeting.(q) <- true) (H.edge_members h eid))
    (meetings h obs);
  List.filter (Array.get in_meeting) (List.init (Array.length obs) Fun.id)

let pp_snapshot h ppf obs =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun v o ->
      Format.fprintf ppf "prof %2d: %a" (H.id h v) pp o;
      (match o.pointer with
       | Some e when e >= 0 && e < H.m h ->
         Format.fprintf ppf " %a" (H.pp_edge h) e
       | Some _ | None -> ());
      if v < Array.length obs - 1 then Format.pp_print_cut ppf ())
    obs;
  Format.fprintf ppf "@]"

module H = Snapcc_hypergraph.Hypergraph

type entry = {
  step : int;
  executed : (int * string) list;
  obs : Obs.t array;
  fault : bool;
}

type t = {
  h : H.t;
  initial : Obs.t array;
  mutable rev_entries : entry list;
  mutable count : int;
}

let create h ~initial = { h; initial; rev_entries = []; count = 0 }

let record t (report : Model.step_report) obs =
  t.rev_entries <-
    { step = report.Model.step; executed = report.Model.executed; obs;
      fault = false }
    :: t.rev_entries;
  t.count <- t.count + 1

let record_fault t ~step obs =
  t.rev_entries <- { step; executed = []; obs; fault = true } :: t.rev_entries;
  t.count <- t.count + 1

let entries t = List.rev t.rev_entries
let length t = t.count

let pp_timeline ?(width = 64) ppf t =
  let entries = entries t in
  let total = max 1 (List.length entries) in
  let width = min width total in
  let buckets = Array.make_matrix (H.m t.h) width false in
  List.iteri
    (fun i e ->
      let col = i * width / total in
      List.iter
        (fun eid -> buckets.(eid).(col) <- true)
        (Obs.meetings t.h e.obs))
    entries;
  Format.fprintf ppf "@[<v>";
  let label_width =
    List.fold_left max 0
      (List.init (H.m t.h) (fun e ->
           String.length (Format.asprintf "%a" (H.pp_edge t.h) e)))
  in
  for e = 0 to H.m t.h - 1 do
    let label = Format.asprintf "%a" (H.pp_edge t.h) e in
    let pad = String.make (label_width - String.length label) ' ' in
    let row =
      String.init width (fun c -> if buckets.(e).(c) then '#' else '.')
    in
    Format.fprintf ppf "%s%s  %s" label pad row;
    if e < H.m t.h - 1 then Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>initial:@,%a@," (Obs.pp_snapshot t.h) t.initial;
  List.iter
    (fun e ->
      if e.fault then
        Format.fprintf ppf "fault before step %d:@,%a@," e.step
          (Obs.pp_snapshot t.h) e.obs
      else
        Format.fprintf ppf "step %d: %s@,%a@," e.step
          (String.concat ", "
             (List.map (fun (p, l) -> Printf.sprintf "%d:%s" (H.id t.h p) l) e.executed))
          (Obs.pp_snapshot t.h) e.obs)
    (entries t);
  Format.fprintf ppf "@]"

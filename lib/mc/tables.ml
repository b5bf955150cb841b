(* Dense guard/footprint tables over the interned per-process state domains
   (lib/statics' exact tier and the explorer's table-driven fast path).

   For each process [p] one pass, shared by [build] and [enumerate],
   enumerates the full product of the declared domains of [p]'s read
   support (its closed neighborhood, extended on demand when an evaluation
   reads beyond it) under every uniform input mode, evaluating the
   engine's backwards priority scan on every cell.  The verdicts are
   therefore absolute over the declared domains — not relative to a
   sampled reachable set.

   Evidence is accumulated as incidents (locality, write-ownership,
   determinism, crash-freedom), per-action guard-true counts (dead-action
   proofs), priority-overlap occurrences, and — for processes whose product
   fits the storage cap — a packed table keyed by dense state ids, which
   {!Explore} can execute by lookup instead of re-running the guard
   closures per transition.  A cell's {e row} is its [nmodes] packed
   entries; few distinct rows occur (193–217 per cc1∘vring triangle3
   process), so a table stores one 16-bit row code per cell and each
   distinct row once. *)

module H = Snapcc_hypergraph.Hypergraph
module Model = Snapcc_runtime.Model
module Masks = Hashtbl.Make (Int)

let nmodes = Array.length Model.input_modes

type incident =
  | Nonlocal_read of { proc : int; action : string; read : int }
  | Foreign_mutation of { proc : int; victim : int }
  | Nondet of { proc : int; action : string; what : [ `Guard | `Apply ] }
  | Crashed of {
      proc : int;
      action : string;
      what : [ `Guard | `Apply ];
      exn : string;
    }

(* Packed entry: [act] (6 bits) | [changes] (1) | [reads] (16-bit process
   mask: scan + statement) | [succ] (dense successor id of the executing
   process).  [-1] = no action enabled; [-2] = unavailable (no stored
   table, or an escapee id in the support). *)

let entry_act e = e land 0x3f
let entry_changes e = e land 0x40 <> 0
let entry_reads e = (e lsr 7) land 0xffff
let entry_succ e = e lsr 23

let pack ~act ~changes ~reads ~succ =
  act lor ((if changes then 1 else 0) lsl 6) lor (reads lsl 7) lor (succ lsl 23)

type proc_tbl = {
  support : int array;  (** processes read, ascending; includes the owner *)
  sizes : int array;  (** domain size per support process *)
  strides : int array;  (** row-major, last support process fastest *)
  codes : Bytes.t;  (** per cell, its row code: 16 bits, little-endian *)
  rows : int array;  (** per row code, its [nmodes] packed entries *)
}

let max_rows = 1 lsl 16

(* The one accessor of a stored table: a cell's row code, then an entry of
   that row. *)
let ncells tb = Bytes.length tb.codes / 2
let cell_code tb cell = Bytes.get_uint16_le tb.codes (2 * cell)
let code_entry tb code ~mode = tb.rows.((code * nmodes) + mode)

(* Numbers distinct rows in first-occurrence order: [rows] holds [nmodes]
   entries per code, [slots] is an open-addressing index of the codes
   (code + 1, [0] = empty) kept at most half full. *)
module Coder = struct
  type t = {
    mutable rows : int array;
    mutable count : int;
    mutable slots : int array;
  }

  let create () =
    { rows = Array.make (16 * nmodes) 0; count = 0; slots = Array.make 32 0 }

  let reset c =
    c.count <- 0;
    Array.fill c.slots 0 (Array.length c.slots) 0

  let hash rows base =
    let h = ref 0 in
    for m = 0 to nmodes - 1 do
      h := (!h + rows.(base + m)) * 0x2545F4914F6CDD1D
    done;
    !h lxor (!h lsr 29)

  let same c code row =
    let base = code * nmodes in
    let eq = ref true in
    for m = 0 to nmodes - 1 do
      if c.rows.(base + m) <> row.(m) then eq := false
    done;
    !eq

  let rec slot_of c row i =
    let s = c.slots.(i) in
    if s = 0 || same c (s - 1) row then i
    else slot_of c row ((i + 1) land (Array.length c.slots - 1))

  let grow c =
    let slots = Array.make (2 * Array.length c.slots) 0 in
    c.slots <- slots;
    let mask = Array.length slots - 1 in
    for code = 0 to c.count - 1 do
      let i = ref (hash c.rows (code * nmodes) land mask) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- code + 1
    done

  (* The code of [row] ([nmodes] entries), the next one on first sight;
     [-1] once all [max_rows] codes are taken. *)
  let code c row =
    let i = slot_of c row (hash row 0 land (Array.length c.slots - 1)) in
    let s = c.slots.(i) in
    if s > 0 then s - 1
    else if c.count = max_rows then -1
    else begin
      let code = c.count in
      if (code + 1) * nmodes > Array.length c.rows then begin
        let rows = Array.make (2 * Array.length c.rows) 0 in
        Array.blit c.rows 0 rows 0 (code * nmodes);
        c.rows <- rows
      end;
      Array.blit row 0 c.rows (code * nmodes) nmodes;
      c.count <- code + 1;
      if 2 * c.count > Array.length c.slots then grow c
      else c.slots.(i) <- code + 1;
      code
    end

  let rows c = Array.sub c.rows 0 (c.count * nmodes)
end

let of_rows ~support ~sizes ~strides entry =
  let n = Array.fold_left ( * ) 1 sizes in
  let c = Coder.create () in
  let codes = Bytes.create (2 * n) in
  let row = Array.make nmodes 0 in
  let rec go cell =
    if cell = n then Ok { support; sizes; strides; codes; rows = Coder.rows c }
    else begin
      for mode = 0 to nmodes - 1 do
        row.(mode) <- entry ~cell ~mode
      done;
      match Coder.code c row with
      | -1 ->
        Error
          (Printf.sprintf "more than %d distinct rows: past the 16-bit row codes"
             max_rows)
      | code ->
        Bytes.set_uint16_le codes (2 * cell) code;
        go (cell + 1)
    end
  in
  go 0

(** Functor-free image of the tables, for serialization ({!Snapcc_statics}
    artifacts) and cross-module transport. *)
type portable = {
  p_algo : string;
  p_topo : string;
  p_n : int;
  p_labels : string array;
  p_dom : int array;  (** declared-domain size per process *)
  p_procs : (proc_tbl, string) result array;  (** [Error reason] = skipped *)
}

(* [p] and its neighbors, as a process mask: the support a pass starts
   from, and the reads that are local. *)
let closed_neighborhood h p =
  Array.fold_left (fun m q -> m lor (1 lsl q)) (1 lsl p) (H.neighbors h p)

(* Cells in the product of [sizes], as a float so that a product too large
   to enumerate still compares with a cap. *)
let product sizes = Array.fold_left (fun a s -> a *. float_of_int s) 1.0 sizes

let rec advance ids sizes j =
  if j < 0 then -1
  else begin
    ids.(j) <- ids.(j) + 1;
    if ids.(j) < sizes.(j) then j
    else begin
      ids.(j) <- 0;
      advance ids sizes (j - 1)
    end
  end

module Make (Sys : System.S) = struct
  module Enc = Encode.Make (Sys)

  exception Need of int
  (* an evaluation read a process outside the current support: extend and
     restart the pass for this process *)

  type t = {
    h : H.t;
    enc : Enc.t;
    labels : string array;
    supports : int array array;
    tables : (proc_tbl, string) result array;
    guard_true : int array;
    overlaps : (string list * int * int) list;  (* labels, cells, example *)
    incidents : (incident * int) list;
    cells : int;  (* (cell, mode) pairs enumerated, all processes *)
    streamed : bool array;  (* pass completed but entries were not stored *)
    seconds : float;
    tainted : bool;  (* an in-place mutation corrupted the interned states *)
  }

  let enc t = t.enc
  let labels t = t.labels
  let guard_true t = Array.copy t.guard_true
  let overlaps t = t.overlaps
  let incidents t = t.incidents
  let cells t = t.cells
  let seconds t = t.seconds
  let tainted t = t.tainted
  let support t p = t.supports.(p)

  let status t p =
    match t.tables.(p) with
    | Ok _ -> `Built
    | Error r -> if t.streamed.(p) then `Streamed r else `Skipped r

  let built t =
    Array.for_all (fun tb -> match tb with Ok _ -> true | Error _ -> false)
      t.tables

  let complete t =
    Array.for_all Fun.id
      (Array.mapi
         (fun p tb ->
           match tb with Ok _ -> true | Error _ -> t.streamed.(p))
         t.tables)

  let row_code t ~proc cfg =
    match t.tables.(proc) with
    | Error _ -> -1
    | Ok tb ->
      let k = Array.length tb.support in
      let idx = ref 0 in
      let ok = ref true in
      for j = 0 to k - 1 do
        let id = cfg.(tb.support.(j)) in
        if id >= tb.sizes.(j) then ok := false
        else idx := !idx + (id * tb.strides.(j))
      done;
      if !ok then cell_code tb !idx else -1

  let entry_of_code t ~proc ~code ~mode =
    match t.tables.(proc) with
    | Ok tb when code >= 0 -> code_entry tb code ~mode
    | _ -> -2

  let entry t ~mode ~proc cfg =
    entry_of_code t ~proc ~code:(row_code t ~proc cfg) ~mode

  let domain_states h enc =
    Array.init (H.n h) (fun p ->
        let d = Enc.domain_count enc p in
        if d = 0 then failwith "Mc.Tables: empty declared domain";
        Array.init d (Enc.state enc p))

  (* The exact tier's pass over process [p], the one {!build} and
     {!enumerate} share.  For every cell of the product of the declared
     domains of [p]'s support (odometer order, last support process
     fastest) and every input mode, it evaluates every guard from the last
     action down, executes the §2.2 choice (the enabled action latest in
     code order), and hands [cell] the cell's row-major index, the mode,
     the live digits, the mask of enabled guards and the packed entry.  A
     read beyond the support extends it and restarts the pass, so [start]
     fires at every (re)start and consumers reset there.  [verify]
     evaluates every guard and statement twice; [incident] receives
     non-local reads, crashes and disagreements.  Returns the final support
     and whether its product fit [cap] (nothing was enumerated if not); a
     [Failure] of the interner propagates. *)
  let pass h enc actions dom ~verify ~incident ~cap ~start ~cell p mask =
    let n = H.n h in
    let nact = Array.length actions in
    let label i = actions.(i).Model.label in
    let closed = closed_neighborhood h p in
    let attempt mask =
      let support = Array.of_list (Bitpack.bits_list mask) in
      let sizes = Array.map (Enc.domain_count enc) support in
      if product sizes *. float_of_int nmodes > float_of_int cap then
        (support, false)
      else begin
        start ~support ~sizes;
        let k = Array.length support in
        let ids = Array.make k 0 in
        let own = ref 0 in
        Array.iteri (fun j q -> if q = p then own := j) support;
        let own = !own in
        let sts = Array.init n (fun q -> dom.(q).(0)) in
        let reads = ref 0 in
        let input_read = ref false in
        let cur = ref 0 in
        let read q =
          if mask land (1 lsl q) = 0 then raise (Need q);
          reads := !reads lor (1 lsl q);
          if closed land (1 lsl q) = 0 then
            incident (Nonlocal_read { proc = p; action = label !cur; read = q });
          sts.(q)
        in
        let ctxs =
          Array.map
            (fun (_, (base : Model.inputs)) ->
              { Model.h;
                inputs =
                  { Model.request_in =
                      (fun q ->
                        input_read := true;
                        base.Model.request_in q);
                    request_out =
                      (fun q ->
                        input_read := true;
                        base.Model.request_out q) };
                read;
                self = p })
            Model.input_modes
        in
        (* per-cell caches, indexed by action *)
        let g_val = Array.make nact false in
        let g_reads = Array.make nact 0 in
        let g_input = Array.make nact false in
        let a_succ = Array.make nact min_int in  (* min_int unset, -2 crash *)
        let a_reads = Array.make nact 0 in
        let a_input = Array.make nact false in
        let crashed i what exn =
          incident
            (Crashed
               { proc = p; action = label i; what; exn = Printexc.to_string exn })
        in
        let eval_guard mode i =
          reads := 0;
          input_read := false;
          cur := i;
          let g =
            match actions.(i).Model.guard ctxs.(mode) with
            | g -> g
            | exception (Need _ as e) -> raise e
            | exception exn ->
              crashed i `Guard exn;
              false
          in
          (if verify then
             match actions.(i).Model.guard ctxs.(mode) with
             | g2 ->
               if g <> g2 then
                 incident (Nondet { proc = p; action = label i; what = `Guard })
             | exception (Need _ as e) -> raise e
             | exception exn -> crashed i `Guard exn);
          g_val.(i) <- g;
          g_reads.(i) <- !reads;
          g_input.(i) <- !input_read
        in
        let eval_apply mode i =
          reads := 0;
          input_read := false;
          cur := i;
          (match actions.(i).Model.apply ctxs.(mode) with
          | exception (Need _ as e) -> raise e
          | exception exn ->
            crashed i `Apply exn;
            a_succ.(i) <- -2
          | s1 ->
            (if verify then
               match actions.(i).Model.apply ctxs.(mode) with
               | s2 ->
                 if not (Sys.equal_state s1 s2) then
                   incident (Nondet { proc = p; action = label i; what = `Apply })
               | exception (Need _ as e) -> raise e
               | exception exn -> crashed i `Apply exn);
            a_succ.(i) <- Enc.intern enc p s1);
          a_reads.(i) <- !reads;
          a_input.(i) <- !input_read
        in
        let index = ref 0 in
        let changed = ref 0 in
        while !changed >= 0 do
          Array.fill a_succ 0 nact min_int;
          for mode = 0 to nmodes - 1 do
            (* guards whose first evaluation consulted no input predicate
               are mode-independent: reuse their mode-0 verdict *)
            for i = nact - 1 downto 0 do
              if mode = 0 || g_input.(i) then eval_guard mode i
            done;
            let enabled = ref 0 and chosen = ref (-1) in
            for i = 0 to nact - 1 do
              if g_val.(i) then begin
                enabled := !enabled lor (1 lsl i);
                chosen := i
              end
            done;
            let chosen = !chosen in
            let entry =
              if chosen < 0 then -1
              else begin
                if a_succ.(chosen) = min_int || a_input.(chosen) then
                  eval_apply mode chosen;
                if a_succ.(chosen) = -2 then -1
                else begin
                  (* the engine's scan reads the guards from the last
                     action down to [chosen], then the statement *)
                  let rm = ref a_reads.(chosen) in
                  for i = chosen to nact - 1 do
                    rm := !rm lor g_reads.(i)
                  done;
                  pack ~act:chosen
                    ~changes:(a_succ.(chosen) <> ids.(own))
                    ~reads:!rm ~succ:a_succ.(chosen)
                end
              end
            in
            cell ~index:!index ~mode ~ids ~enabled:!enabled ~entry
          done;
          incr index;
          changed := advance ids sizes (k - 1);
          for j = max 0 !changed to k - 1 do
            sts.(support.(j)) <- dom.(support.(j)).(ids.(j))
          done
        done;
        (support, true)
      end
    in
    let rec run mask =
      match attempt mask with
      | r -> r
      | exception Need q -> run (mask lor (1 lsl q))
    in
    run mask

  let build ?(verify = false) ?(cap = 1 lsl 27) ?(store_cap = 1 lsl 24) h =
    let t0 = Stdlib.Sys.time () in
    let n = H.n h in
    if n > 16 then failwith "Mc.Tables: more than 16 processes unsupported";
    let enc = Enc.create h in
    let actions = Array.of_list (Sys.actions h) in
    let nact = Array.length actions in
    if nact > 63 then failwith "Mc.Tables: more than 63 actions unsupported";
    let labels =
      Array.map (fun (a : _ Model.action) -> a.Model.label) actions
    in
    let dom = domain_states h enc in
    let fp s = Format.asprintf "%a" Sys.pp_state s in
    let fps = if verify then Array.map (Array.map fp) dom else [||] in
    let guard_true = Array.make nact 0 in
    let incidents : (incident, int) Hashtbl.t = Hashtbl.create 32 in
    let overlaps : (int * int) Masks.t = Masks.create 32 in
    let supports = Array.make n [||] in
    let tables = Array.make n (Error "not built") in
    let streamed = Array.make n false in
    let cells = ref 0 in
    let tainted = ref false in
    let add tbl key c =
      Hashtbl.replace tbl key
        (c + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    (* What the current (re)start of a pass found, added to the totals only
       once the pass completes, so that a restart counts nothing twice.  A
       cell is coded once its last mode is evaluated; [codes] stays empty
       when the product exceeds [store_cap], and is dropped when the rows
       outgrow the code space ([full]). *)
    let l_guard_true = Array.make nact 0 in
    let l_incidents : (incident, int) Hashtbl.t = Hashtbl.create 8 in
    let l_overlaps : int ref Masks.t = Masks.create 8 in
    let coder = Coder.create () in
    let cell_row = Array.make nmodes 0 in
    let codes = ref Bytes.empty in
    let full = ref false in
    let start ~support:_ ~sizes =
      Array.fill l_guard_true 0 nact 0;
      Hashtbl.reset l_incidents;
      Masks.reset l_overlaps;
      Coder.reset coder;
      full := false;
      let ncells = int_of_float (product sizes) in
      codes :=
        if ncells * nmodes <= store_cap then Bytes.create (2 * ncells)
        else Bytes.empty
    in
    let incident i = add l_incidents i 1 in
    let cell ~index ~mode ~ids:_ ~enabled ~entry =
      for i = 0 to nact - 1 do
        if enabled land (1 lsl i) <> 0 then
          l_guard_true.(i) <- l_guard_true.(i) + 1
      done;
      (if enabled land (enabled - 1) <> 0 then
         match Masks.find l_overlaps enabled with
         | c -> incr c
         | exception Not_found -> Masks.add l_overlaps enabled (ref 1));
      if Bytes.length !codes > 0 then begin
        cell_row.(mode) <- entry;
        if mode = nmodes - 1 then
          match Coder.code coder cell_row with
          | -1 ->
            codes := Bytes.empty;
            full := true
          | code -> Bytes.set_uint16_le !codes (2 * index) code
      end
    in
    for p = 0 to n - 1 do
      match
        pass h enc actions dom ~verify ~incident ~cap ~start ~cell p
          (closed_neighborhood h p)
      with
      | exception Failure msg ->
        (* e.g. interning overflow after an in-place mutation corrupted the
           hash-consing tables: record and move on *)
        tables.(p) <- Error msg;
        tainted := true
      | support, false ->
        supports.(p) <- support;
        tables.(p) <-
          Error
            (Printf.sprintf
               "product %.3g cells x %d modes exceeds the enumeration cap %d"
               (product (Array.map (Enc.domain_count enc) support))
               nmodes cap)
      | support, true ->
        (* in-place mutation check: every interned domain state must print
           the same after the pass as before it *)
        if verify then
          Array.iteri
            (fun q states ->
              Array.iteri
                (fun i s ->
                  if not (String.equal (fp s) fps.(q).(i)) then begin
                    incident (Foreign_mutation { proc = p; victim = q });
                    tainted := true;
                    fps.(q).(i) <- fp s
                  end)
                states)
            dom;
        let sizes = Array.map (Enc.domain_count enc) support in
        let ncells = Array.fold_left ( * ) 1 sizes in
        supports.(p) <- support;
        (if Bytes.length !codes > 0 then begin
           let k = Array.length support in
           let strides = Array.make k 1 in
           for j = k - 2 downto 0 do
             strides.(j) <- strides.(j + 1) * sizes.(j + 1)
           done;
           tables.(p) <-
             Ok { support; sizes; strides; codes = !codes;
                  rows = Coder.rows coder }
         end
         else begin
           (* the pass itself completed: verdicts are exact, only the packed
              entries could not be kept *)
           streamed.(p) <- true;
           tables.(p) <-
             Error
               (if !full then
                  Printf.sprintf
                    "streamed: %d cells hold more than %d distinct rows, the \
                     16-bit row codes"
                    ncells max_rows
                else
                  Printf.sprintf
                    "streamed: %d cells x %d modes exceeds the table storage \
                     cap %d"
                    ncells nmodes store_cap)
         end);
        Array.iteri (fun i c -> guard_true.(i) <- guard_true.(i) + c) l_guard_true;
        Hashtbl.iter (add incidents) l_incidents;
        Masks.iter
          (fun m c ->
            match Masks.find_opt overlaps m with
            | Some (c0, ex) -> Masks.replace overlaps m (c0 + !c, ex)
            | None -> Masks.replace overlaps m (!c, p))
          l_overlaps;
        cells := !cells + (ncells * nmodes)
    done;
    let overlaps =
      Masks.fold
        (fun mask (c, ex) acc ->
          (List.map (fun i -> labels.(i)) (Bitpack.bits_list mask), c, ex)
          :: acc)
        overlaps []
      |> List.sort compare
    in
    let incidents =
      Hashtbl.fold (fun i c acc -> (i, c) :: acc) incidents []
      |> List.sort compare
    in
    { h; enc; labels; supports; tables; guard_true; overlaps; incidents;
      cells = !cells; streamed;
      seconds = Stdlib.Sys.time () -. t0; tainted = !tainted }

  (* Stored tables are decoded; streamed and skipped ones rerun {!pass}
     without verify, starting from the support {!build} reached. *)
  let enumerate ?(cap = 1 lsl 27) t ~proc:p ~init ~cell:emit =
    match t.tables.(p) with
    | Ok tb ->
      product tb.sizes *. float_of_int nmodes <= float_of_int cap
      && begin
        init ~support:tb.support ~sizes:tb.sizes;
        let ids = Array.make (Array.length tb.support) 0 in
        (* the cell counter is the row-major index *)
        for c = 0 to ncells tb - 1 do
          let code = cell_code tb c in
          for mode = 0 to nmodes - 1 do
            emit ~mode ~ids ~entry:(code_entry tb code ~mode)
          done;
          ignore (advance ids tb.sizes (Array.length ids - 1))
        done;
        true
      end
    | Error _ -> (
      let base =
        if Array.length t.supports.(p) > 0 then t.supports.(p) else [| p |]
      in
      match
        pass t.h t.enc
          (Array.of_list (Sys.actions t.h))
          (domain_states t.h t.enc) ~verify:false ~incident:ignore ~cap
          ~start:init
          ~cell:(fun ~index:_ ~mode ~ids ~enabled:_ ~entry -> emit ~mode ~ids ~entry)
          p
          (Array.fold_left (fun m q -> m lor (1 lsl q)) 0 base)
      with
      | _, enumerated -> enumerated
      | exception Failure _ -> false)

  (* Read/write interference, exactly: for every ordered pair of neighbors
     (writer, reader) with stored tables, iterate the product over the
     union of their supports and count the cells where the writer's chosen
     action changes its state while the reader's evaluation (scan +
     statement) reads the writer. *)
  let interference t =
    let n = H.n t.h in
    let acc : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if p <> q && H.are_neighbors t.h p q then
          match (t.tables.(p), t.tables.(q)) with
          | Ok tp, Ok tq ->
            let union =
              Array.of_list
                (List.sort_uniq compare
                   (Array.to_list tp.support @ Array.to_list tq.support))
            in
            let k = Array.length union in
            let sizes =
              Array.map (fun r -> Enc.domain_count t.enc r) union
            in
            if product sizes *. float_of_int nmodes <= float_of_int (1 lsl 27)
            then begin
              (* per-table index increments per union digit *)
              let contrib tb =
                Array.map
                  (fun r ->
                    let s = ref 0 in
                    Array.iteri
                      (fun j r' -> if r' = r then s := tb.strides.(j))
                      tb.support;
                    !s)
                  union
              in
              let cp = contrib tp and cq = contrib tq in
              let ids = Array.make k 0 in
              let ip = ref 0 and iq = ref 0 in
              let continue_ = ref true in
              while !continue_ do
                let kp = cell_code tp !ip and kq = cell_code tq !iq in
                for mode = 0 to nmodes - 1 do
                  let ep = code_entry tp kp ~mode in
                  if ep >= 0 && entry_changes ep then begin
                    let eq = code_entry tq kq ~mode in
                    if eq >= 0 && entry_reads eq land (1 lsl p) <> 0 then begin
                      let key =
                        (t.labels.(entry_act ep), t.labels.(entry_act eq))
                      in
                      Hashtbl.replace acc key
                        (1 + Option.value ~default:0 (Hashtbl.find_opt acc key))
                    end
                  end
                done;
                let c = advance ids sizes (k - 1) in
                if c < 0 then continue_ := false
                else begin
                  (* digit [c] went up by one, every later one wrapped *)
                  ip := !ip + cp.(c);
                  iq := !iq + cq.(c);
                  for j = c + 1 to k - 1 do
                    ip := !ip - ((sizes.(j) - 1) * cp.(j));
                    iq := !iq - ((sizes.(j) - 1) * cq.(j))
                  done
                end
              done
            end
          | _ -> ()
      done
    done;
    Hashtbl.fold (fun (w, r) c acc -> (w, r, c) :: acc) acc []
    |> List.sort compare

  let to_portable ~algo ~topo t =
    { p_algo = algo;
      p_topo = topo;
      p_n = H.n t.h;
      p_labels = Array.copy t.labels;
      p_dom =
        Array.init (H.n t.h) (fun p -> Enc.domain_count t.enc p);
      p_procs =
        Array.map
          (function
            | Ok (tb : proc_tbl) -> Ok tb
            | Error r -> Error r)
          t.tables }
end

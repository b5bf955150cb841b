module H = Snapcc_hypergraph.Hypergraph
module Auto = Snapcc_hypergraph.Automorphism
module Sy = Snapcc_mc.Symmetry
module Tables = Snapcc_mc.Tables
module Obs = Snapcc_runtime.Obs

type outcome = {
  group : Sy.group;
  admitted : string list;
  rejected : (string * string) list;
  candidates : int;
  aut_order : int;
  aut_complete : bool;
  pairs : int;
  seconds : float;
}

(* Order-independent accumulation: per (cell, mode) pair a strong mix of
   every admission-relevant component, summed per target process.  63-bit
   wrap-around sums; a collision would need two different multisets of cell
   hashes to agree, which the avalanche steps make astronomically
   unlikely — and a collision can only cause a spurious *admission*, which
   the parity test-suite cross-checks against full exploration. *)
let mix h x =
  let h = (h lxor (x * 0x2545F4914F6CDD1)) * 0x100000001B3 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C in
  h lxor (h lsr 32)

(* Candidate under test.  [sigma] is the per-process transport on dense
   ids; [acc] the per-target-process hash totals; [ord]/[tprocs] are
   rebuilt at each pass (re)start so transported support pairs stream out
   sorted by target process without per-cell sorting. *)
type cand = {
  c_name : string;
  c_pi : int array;
  c_eperm : int array;
  c_sigma : int array array;
  c_acc : int array;
  mutable c_local : int;
  mutable c_ord : int array;
  mutable c_tprocs : int array;
  mutable c_alive : bool;
  mutable c_reason : string;
}

let kill c reason =
  if c.c_alive then begin
    c.c_alive <- false;
    c.c_reason <- reason
  end

exception Reject of string

module Make (Sys : Snapcc_mc.System.S) = struct
  module Tb = Tables.Make (Sys)
  module Enc = Snapcc_mc.Encode.Make (Sys)

  (* Dense-id transport of one candidate's state map: image of each domain
     state must land back in the target process's declared domain, and the
     resulting map must be bijective.  Raises [Reject]. *)
  let transport enc h ~domains ~pi ~eperm f =
    let n = H.n h in
    let sigma = Array.init n (fun p -> Array.make domains.(p) (-1)) in
    for p = 0 to n - 1 do
      let q = pi.(p) in
      if domains.(q) <> domains.(p) then
        raise (Reject (Printf.sprintf "domain size mismatch at process %d" p));
      let seen = Array.make domains.(q) false in
      for i = 0 to domains.(p) - 1 do
        let s = Enc.state enc p i in
        let s' = Sys.canon h q (f ~pi ~eperm p s) in
        match Enc.find enc q s' with
        | Some j when j < domains.(q) ->
            if seen.(j) then
              raise
                (Reject
                   (Printf.sprintf "transport not injective at process %d" p));
            seen.(j) <- true;
            sigma.(p).(i) <- j
        | _ ->
            raise
              (Reject
                 (Printf.sprintf
                    "transport leaves the declared domain at process %d" p))
      done
    done;
    sigma

  (* Observation equivariance: obs fields that the meeting predicate and
     the safety monitors read (status, pointer, token flag, lock,
     discussions) must follow the transport.  All systems in this
     repository derive these fields from the process's own state alone, so
     varying one process at a time against a fixed background covers the
     whole product; [has_token] is input-derived and excluded (the input
     modes are uniform, hence symmetric by construction). *)
  let check_obs enc h ~domains c =
    let n = H.n h in
    let base = Array.init n (fun q -> Enc.state enc q 0) in
    (try
       for p = 0 to n - 1 do
         for i = 0 to domains.(p) - 1 do
           let x = Array.copy base in
           x.(p) <- Enc.state enc p i;
           let y = Array.copy base in
           for q = 0 to n - 1 do
             let iq = if q = p then i else 0 in
             y.(c.c_pi.(q)) <- Enc.state enc c.c_pi.(q) c.c_sigma.(q).(iq)
           done;
           let o = Sys.observe h x p and o' = Sys.observe h y c.c_pi.(p) in
           let ptr = Option.map (fun e -> c.c_eperm.(e)) o.Obs.pointer in
           if
             o.Obs.status <> o'.Obs.status
             || ptr <> o'.Obs.pointer
             || o.Obs.token_flag <> o'.Obs.token_flag
             || o.Obs.locked <> o'.Obs.locked
             || o.Obs.discussions <> o'.Obs.discussions
           then
             raise
               (Reject
                  (Printf.sprintf "observation not equivariant at process %d"
                     p))
         done
       done
     with
    | Reject _ as e -> raise e
    | e -> raise (Reject ("observation transport crashed: " ^ Printexc.to_string e)))

  let aut_name pi =
    Printf.sprintf "aut<%s>"
      (String.concat "," (Array.to_list (Array.map string_of_int pi)))

  let run ?(cap = 1 lsl 27) h ~tables =
    let t0 = Unix.gettimeofday () in
    let enc = Tb.enc tables in
    let n = H.n h and m = H.m h in
    let domains = Array.init n (fun p -> Enc.domain_count enc p) in
    let idp = Array.init n Fun.id and ide = Array.init m Fun.id in
    let auts, aut_complete = Auto.group ~cap:720 h in
    let aut_order = List.length auts in
    let rejected = ref [] in
    let mk name pi eperm f =
      try
        let sigma = transport enc h ~domains ~pi ~eperm f in
        let c =
          {
            c_name = name;
            c_pi = pi;
            c_eperm = eperm;
            c_sigma = sigma;
            c_acc = Array.make n 0;
            c_local = 0;
            c_ord = [||];
            c_tprocs = [||];
            c_alive = true;
            c_reason = "";
          }
        in
        check_obs enc h ~domains c;
        Some c
      with Reject reason ->
        rejected := (name, reason) :: !rejected;
        None
    in
    let structural =
      List.filter_map
        (fun pi ->
          if pi = idp then None
          else
            mk (aut_name pi) pi (Auto.edge_perm h pi) (fun ~pi ~eperm p s ->
                Sys.rename h ~pi ~eperm p s))
        auts
    in
    let internal =
      List.filter_map
        (fun (name, f) ->
          mk name idp ide (fun ~pi:_ ~eperm:_ p s -> f p s))
        (Sys.state_symmetries h)
    in
    let cands = structural @ internal in
    let candidates = aut_order - 1 + List.length (Sys.state_symmetries h) in
    let pairs = ref 0 in
    (* One enumeration pass per process feeds the reference side and every
       surviving candidate at once. *)
    let alive () = List.filter (fun c -> c.c_alive) cands in
    let ref_acc = Array.make n 0 in
    let streamed = ref true in
    if alive () <> [] then begin
      let p = ref 0 in
      while !streamed && !p < n do
        let src = !p in
        let live = Array.of_list (alive ()) in
        let ref_local = ref 0 in
        let cur_support = ref [||] in
        let cur_k = ref 0 in
        let init ~support ~sizes:_ =
          cur_support := support;
          cur_k := Array.length support;
          ref_local := 0;
          Array.iter
            (fun c ->
              c.c_local <- 0;
              let k = Array.length support in
              let ord = Array.init k Fun.id in
              Array.sort
                (fun a b ->
                  compare c.c_pi.(support.(a)) c.c_pi.(support.(b)))
                ord;
              c.c_ord <- ord;
              c.c_tprocs <- Array.map (fun j -> c.c_pi.(support.(j))) ord)
            live
        in
        let cell ~mode ~ids ~entry =
          incr pairs;
          let support = !cur_support and k = !cur_k in
          (* reference side: target = src, pairs in support order *)
          let hr = ref (mix 0x51ED270B src) in
          hr := mix !hr mode;
          for j = 0 to k - 1 do
            hr := mix !hr ((support.(j) * 131071) + ids.(j))
          done;
          (if entry < 0 then hr := mix !hr entry
           else begin
             hr := mix !hr (Tables.entry_act entry);
             hr := mix !hr (if Tables.entry_changes entry then 1 else 0);
             hr := mix !hr (Tables.entry_reads entry);
             hr := mix !hr (Tables.entry_succ entry + 7)
           end);
          ref_local := !ref_local + !hr;
          Array.iter
            (fun c ->
              if c.c_alive then begin
                let hc = ref (mix 0x51ED270B c.c_pi.(src)) in
                hc := mix !hc mode;
                (try
                   for j = 0 to k - 1 do
                     let sj = c.c_ord.(j) in
                     let q = support.(sj) in
                     let id = ids.(sj) in
                     if id >= Array.length c.c_sigma.(q) then
                       raise (Reject "escapee id in enumerated cell");
                     hc :=
                       mix !hc ((c.c_tprocs.(j) * 131071) + c.c_sigma.(q).(id))
                   done;
                   (if entry < 0 then hc := mix !hc entry
                    else begin
                      let succ = Tables.entry_succ entry in
                      if succ >= Array.length c.c_sigma.(src) then
                        raise (Reject "escapee successor in table");
                      hc := mix !hc (Tables.entry_act entry);
                      hc :=
                        mix !hc (if Tables.entry_changes entry then 1 else 0);
                      hc := mix !hc (Sy.map_mask c.c_pi (Tables.entry_reads entry));
                      hc := mix !hc (c.c_sigma.(src).(succ) + 7)
                    end);
                   c.c_local <- c.c_local + !hc
                 with Reject reason -> kill c reason)
              end)
            live
        in
        let completed = Tb.enumerate ~cap tables ~proc:src ~init ~cell in
        if completed then begin
          ref_acc.(src) <- !ref_local;
          Array.iter
            (fun c ->
              if c.c_alive then
                c.c_acc.(c.c_pi.(src)) <- c.c_local)
            live
        end
        else streamed := false;
        incr p
      done;
      if not !streamed then
        List.iter
          (fun c -> kill c "enumeration pass over cap or failed")
          (alive ())
      else
        List.iter
          (fun c ->
            let ok = ref true in
            for t = 0 to n - 1 do
              if c.c_acc.(t) <> ref_acc.(t) then ok := false
            done;
            if not !ok then kill c "table commutation failed")
          (alive ())
    end;
    let admitted = List.filter (fun c -> c.c_alive) cands in
    List.iter
      (fun c ->
        if not c.c_alive then rejected := (c.c_name, c.c_reason) :: !rejected)
      cands;
    let gens =
      List.map
        (fun c ->
          {
            Sy.name = c.c_name;
            pi = c.c_pi;
            eperm = c.c_eperm;
            sigma = c.c_sigma;
          })
        admitted
    in
    let group =
      if gens = [] then Sy.trivial ~n ~m ~domains
      else Sy.close ~n ~m ~domains gens
    in
    let group, admitted_names =
      if group.Sy.complete then (group, List.map (fun c -> c.c_name) admitted)
      else begin
        rejected :=
          ("(closure)", "admitted group exceeded the closure cap") :: !rejected;
        (Sy.trivial ~n ~m ~domains, [])
      end
    in
    {
      group;
      admitted = admitted_names;
      rejected = List.rev !rejected;
      candidates;
      aut_order;
      aut_complete;
      pairs = !pairs;
      seconds = Unix.gettimeofday () -. t0;
    }
end

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let magic = "snapcc-orbits v1"

let perm_orbits ~n perms =
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  List.iter (fun pi -> Array.iteri (fun i j -> union i j) pi) perms;
  Array.init n (fun i -> find i)

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let certificate ~algo ~topo h outcome =
  let n = H.n h and m = H.m h in
  let grp = outcome.group in
  let id = grp.Sy.elems.(0) in
  let domains = Array.map Array.length id.Sy.sigma in
  let buf = ref [] in
  let line s = buf := s :: !buf in
  line magic;
  line ("algo " ^ algo);
  line ("topo " ^ topo);
  line (Printf.sprintf "n %d" n);
  line (Printf.sprintf "m %d" m);
  line ("domains " ^ ints domains);
  for e = 0 to m - 1 do
    line (Printf.sprintf "edge %d %s" e (ints (H.edge_members h e)))
  done;
  line (Printf.sprintf "group-order %d" (Sy.order grp));
  line
    (Printf.sprintf "group-complete %b" grp.Sy.complete);
  line (Printf.sprintf "candidates %d" outcome.candidates);
  line (Printf.sprintf "pairs %d" outcome.pairs);
  List.iter
    (fun g ->
      line ("generator " ^ g.Sy.name);
      line ("pi " ^ ints g.Sy.pi);
      line ("eperm " ^ ints g.Sy.eperm);
      Array.iteri
        (fun p s -> line (Printf.sprintf "sigma %d %s" p (ints s)))
        g.Sy.sigma;
      line "end-generator")
    grp.Sy.gens;
  let vperms = List.map (fun g -> g.Sy.pi) grp.Sy.gens in
  let eperms = List.map (fun g -> g.Sy.eperm) grp.Sy.gens in
  line ("vertex-orbits " ^ ints (perm_orbits ~n vperms));
  line ("edge-orbits " ^ ints (perm_orbits ~n:m eperms));
  List.iter
    (fun (name, reason) ->
      line (Printf.sprintf "rejected %s :: %s" name reason))
    outcome.rejected;
  line "end";
  List.rev !buf

(* --- independent verifier ----------------------------------------- *)

let split s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let parse_ints tokens =
  try Some (Array.of_list (List.map int_of_string tokens))
  with Failure _ -> None

let is_perm a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      x >= 0 && x < n && not seen.(x) && (seen.(x) <- true; true))
    a

(* The verifier allocates one transport entry per domain state and
   process for each group element it closes; the certificates the
   catalog's systems produce declare a few thousand in all. *)
let max_domain_total = 1 lsl 24

let verify lines =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  match lines with
  | [] -> Error "empty certificate"
  | first :: rest ->
      if first <> magic then err "bad magic %S (want %S)" first magic
      else begin
        (* header *)
        let n = ref (-1) and m = ref (-1) in
        let domains = ref [||] in
        let edges = Hashtbl.create 8 in
        let order = ref (-1) and complete = ref None in
        let gens = ref [] in
        let vorbits = ref None and eorbits = ref None in
        let seen_end = ref false in
        let cur_gen = ref None in
        let result =
          List.fold_left
            (fun acc line ->
              let* () = acc in
              if !seen_end then
                if split line = [] then Ok () else err "content after end"
              else
                match (split line, !cur_gen) with
                | [], _ -> Ok ()
                | "end" :: [], None ->
                    seen_end := true;
                    Ok ()
                | "algo" :: _, None | "topo" :: _, None -> Ok ()
                | [ "n"; v ], None -> (
                    match int_of_string_opt v with
                    | Some v ->
                        n := v;
                        Ok ()
                    | None -> err "bad n line")
                | [ "m"; v ], None -> (
                    match int_of_string_opt v with
                    | Some v ->
                        m := v;
                        Ok ()
                    | None -> err "bad m line")
                | "domains" :: ds, None -> (
                    match parse_ints ds with
                    | Some a ->
                        domains := a;
                        Ok ()
                    | None -> err "bad domains line")
                | "edge" :: e :: vs, None -> (
                    match (int_of_string_opt e, parse_ints vs) with
                    | Some e, Some vs when Array.length vs >= 2 ->
                        Hashtbl.replace edges e vs;
                        Ok ()
                    | _ -> err "bad edge line")
                | [ "group-order"; v ], None -> (
                    match int_of_string_opt v with
                    | Some v ->
                        order := v;
                        Ok ()
                    | None -> err "bad group-order line")
                | [ "group-complete"; v ], None ->
                    complete := bool_of_string_opt v;
                    Ok ()
                | [ "candidates"; _ ], None | [ "pairs"; _ ], None -> Ok ()
                | "generator" :: name, None ->
                    cur_gen :=
                      Some (String.concat " " name, ref None, ref None,
                            Hashtbl.create 8);
                    Ok ()
                | "pi" :: vs, Some (_, pi, _, _) -> (
                    match parse_ints vs with
                    | Some a ->
                        pi := Some a;
                        Ok ()
                    | None -> err "bad pi line")
                | "eperm" :: vs, Some (_, _, ep, _) -> (
                    match parse_ints vs with
                    | Some a ->
                        ep := Some a;
                        Ok ()
                    | None -> err "bad eperm line")
                | "sigma" :: p :: vs, Some (_, _, _, sg) -> (
                    match (int_of_string_opt p, parse_ints vs) with
                    | Some p, Some a ->
                        Hashtbl.replace sg p a;
                        Ok ()
                    | _ -> err "bad sigma line")
                | [ "end-generator" ], Some (name, pi, ep, sg) -> (
                    match (!pi, !ep) with
                    | Some pi, Some ep ->
                        gens := (name, pi, ep, sg) :: !gens;
                        cur_gen := None;
                        Ok ()
                    | _ -> err "generator %s missing pi or eperm" name)
                | "vertex-orbits" :: vs, None ->
                    vorbits := parse_ints vs;
                    Ok ()
                | "edge-orbits" :: vs, None ->
                    eorbits := parse_ints vs;
                    Ok ()
                | "rejected" :: _, None -> Ok ()
                | _ -> err "unparseable line %S" line)
            (Ok ()) rest
        in
        let* () = result in
        let* () = if !seen_end then Ok () else err "missing end line" in
        let n = !n and m = !m in
        let* () =
          if n > 0 && m >= 0 && Array.length !domains = n then Ok ()
          else err "inconsistent n/m/domains header"
        in
        let* () =
          if Hashtbl.length edges = m then Ok ()
          else err "edge count %d does not match m %d" (Hashtbl.length edges) m
        in
        let domains = !domains in
        let* () =
          (* before anything is sized by them *)
          let total =
            Array.fold_left
              (fun acc d ->
                if d < 1 || acc > max_domain_total - d then max_int
                else acc + d)
              0 domains
          in
          if total <= max_domain_total then Ok ()
          else
            err "domain sizes must be at least 1 and total at most %d"
              max_domain_total
        in
        let gens = List.rev !gens in
        let* () =
          match !complete with
          | Some true -> Ok ()
          | _ -> err "certificate group not complete"
        in
        (* structural checks per generator *)
        let check_gen (name, pi, ep, sg) =
          let* () =
            if Array.length pi = n && is_perm pi then Ok ()
            else err "generator %s: pi is not a permutation of %d" name n
          in
          let* () =
            if Array.length ep = m && is_perm ep then Ok ()
            else err "generator %s: eperm is not a permutation of %d" name m
          in
          (* pi is a hypergraph automorphism matching eperm *)
          let* () =
            let rec go e =
              if e >= m then Ok ()
              else
                match
                  (Hashtbl.find_opt edges e, Hashtbl.find_opt edges ep.(e))
                with
                | Some src, Some dst ->
                    let img = Array.map (fun v -> pi.(v)) src in
                    Array.sort compare img;
                    let dst = Array.copy dst in
                    Array.sort compare dst;
                    if img = dst then go (e + 1)
                    else
                      err
                        "generator %s: edge %d does not map onto edge %d under \
                         pi"
                        name e ep.(e)
                | _ -> err "generator %s: missing edge %d" name e
            in
            go 0
          in
          (* sigma: total, in-range, bijective *)
          let rec go p =
            if p >= n then Ok ()
            else
              match Hashtbl.find_opt sg p with
              | None -> err "generator %s: missing sigma for process %d" name p
              | Some s ->
                  if Array.length s <> domains.(p) then
                    err "generator %s: sigma %d has %d entries (domain %d)"
                      name p (Array.length s) domains.(p)
                  else if domains.(pi.(p)) <> domains.(p) then
                    err "generator %s: domain size mismatch %d -> %d" name p
                      pi.(p)
                  else
                    let seen = Array.make domains.(pi.(p)) false in
                    let ok =
                      Array.for_all
                        (fun x ->
                          x >= 0
                          && x < domains.(pi.(p))
                          && (not seen.(x))
                          && (seen.(x) <- true;
                              true))
                        s
                    in
                    if ok then go (p + 1)
                    else
                      err "generator %s: sigma %d is not a bijection" name p
          in
          go 0
        in
        let rec all = function
          | [] -> Ok ()
          | g :: tl ->
              let* () = check_gen g in
              all tl
        in
        let* () = all gens in
        (* orbits recomputed from the generators *)
        let vperms = List.map (fun (_, pi, _, _) -> pi) gens in
        let eperms = List.map (fun (_, _, ep, _) -> ep) gens in
        let* () =
          match !vorbits with
          | Some o when o = perm_orbits ~n vperms -> Ok ()
          | Some _ -> err "vertex-orbits do not match the generators"
          | None -> err "missing vertex-orbits"
        in
        let* () =
          match !eorbits with
          | Some o when o = perm_orbits ~n:m eperms -> Ok ()
          | Some _ -> err "edge-orbits do not match the generators"
          | None -> err "missing edge-orbits"
        in
        (* group order: re-close on (pi, sigma) *)
        let elems =
          List.map
            (fun (name, pi, ep, sg) ->
              {
                Sy.name;
                pi;
                eperm = ep;
                sigma = Array.init n (fun p -> Hashtbl.find sg p);
              })
            gens
        in
        let cap = max 4096 (!order + 1) in
        let closed = Sy.close ~cap ~n ~m ~domains elems in
        if not closed.Sy.complete then
          err "could not re-close the group under cap %d" cap
        else if Sy.order closed <> !order then
          err "claimed group order %d, re-closure found %d" !order
            (Sy.order closed)
        else Ok ()
      end

let save path ~algo ~topo h outcome =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (certificate ~algo ~topo h outcome))

let verify_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with
  | lines -> verify lines
  | exception Sys_error e -> Error e

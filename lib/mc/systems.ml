module H = Snapcc_hypergraph.Hypergraph
module Cc1 = Snapcc_core.Cc1
module Cc23 = Snapcc_core.Cc23
module Cc_common = Snapcc_core.Cc_common
module Layer = Snapcc_token.Layer
module Token_null = Snapcc_token.Token_null
module Token_vring = Snapcc_token.Token_vring
module Token_tree = Snapcc_token.Token_tree

(* CC1's committee layer times the token domain; [disc] is observability
   only (never read), so it is pinned to 0. *)
module Cc1_sys (T : Layer.S) (M : Cc1.S with type token_state = T.state) :
  System.S with type state = M.state = struct
  include M

  let domain h p =
    let ptrs =
      None :: List.map (fun e -> Some e) (Array.to_list (H.incident h p))
    in
    List.concat_map
      (fun t ->
        List.concat_map
          (fun s ->
            List.concat_map
              (fun ptr ->
                List.map
                  (fun tf -> ({ Cc1.s; ptr; tf; disc = 0 }, t))
                  [ false; true ])
              ptrs)
          [ Cc_common.Idle; Cc_common.Looking; Cc_common.Waiting;
            Cc_common.Done ])
      (T.domain h p)

  let canon _h _p ((c : Cc1.cc), t) = ({ c with Cc1.disc = 0 }, t)

  let rename h ~pi ~eperm p ((c : Cc1.cc), t) =
    ( { c with Cc1.ptr = Option.map (fun e -> eperm.(e)) c.Cc1.ptr },
      T.rename h ~pi p t )

  let state_symmetries h =
    List.map
      (fun (name, f) -> (name, fun p ((c : Cc1.cc), t) -> (c, f p t)))
      (T.state_symmetries h)
end

(* CC2/CC3's committee layer: statuses have no [Idle]; [cur] is read only
   modulo the degree and only when [cursor] (CC3), [disc] never. *)
module Cc23_sys
    (T : Layer.S)
    (M : sig
      include Snapcc_runtime.Model.ALGO with type state = Cc23.cc * T.state
    end)
    (C : sig
      val cursor : bool
    end) : System.S with type state = M.state = struct
  include M

  let domain h p =
    let deg = H.degree h p in
    let ptrs =
      None :: List.map (fun e -> Some e) (Array.to_list (H.incident h p))
    in
    let curs = if C.cursor then List.init deg Fun.id else [ 0 ] in
    List.concat_map
      (fun t ->
        List.concat_map
          (fun s ->
            List.concat_map
              (fun ptr ->
                List.concat_map
                  (fun tf ->
                    List.concat_map
                      (fun lk ->
                        List.map
                          (fun cur ->
                            ({ Cc23.s; ptr; tf; lk; cur; disc = 0 }, t))
                          curs)
                      [ false; true ])
                  [ false; true ])
              ptrs)
          [ Cc_common.Looking; Cc_common.Waiting; Cc_common.Done ])
      (T.domain h p)

  let canon h p ((c : Cc23.cc), t) =
    let deg = H.degree h p in
    let cur =
      if C.cursor then ((c.Cc23.cur mod deg) + deg) mod deg else 0
    in
    ({ c with Cc23.cur; disc = 0 }, t)

  let rename h ~pi ~eperm p ((c : Cc23.cc), t) =
    let cur =
      if not C.cursor then 0
      else begin
        (* [cur] names incident(p).(cur mod deg) — follow that committee
           through [eperm] and recover its rank at the image process *)
        let deg = H.degree h p in
        let e' = eperm.((H.incident h p).(((c.Cc23.cur mod deg) + deg) mod deg)) in
        let rank = ref 0 in
        Array.iteri
          (fun i e -> if e = e' then rank := i)
          (H.incident h pi.(p));
        !rank
      end
    in
    ( { c with Cc23.ptr = Option.map (fun e -> eperm.(e)) c.Cc23.ptr; cur },
      T.rename h ~pi p t )

  let state_symmetries h =
    List.map
      (fun (name, f) -> (name, fun p ((c : Cc23.cc), t) -> (c, f p t)))
      (T.state_symmetries h)
end

type role = Paper | Broken | Ablation | Baseline

let role_name = function
  | Paper -> "paper"
  | Broken -> "broken"
  | Ablation -> "ablation"
  | Baseline -> "baseline"

type entry = {
  key : string;
  title : string;
  role : role;
  token : string option;
  tag : int option;
  local : bool;
  make : string -> (module System.S);
}

let token_keys = [ "vring"; "tree"; "null" ]

(* The name suffix selecting a token layer is its key, except for the null
   layer, which keeps the ablation's established spelling. *)
let token_suffix = function "null" -> "no-token" | t -> t

let name_over key token = key ^ "-" ^ token_suffix token

let with_token (f : (module Layer.S) -> (module System.S)) token =
  match token with
  | "vring" -> f (module Token_vring)
  | "tree" -> f (module Token_tree)
  | "null" -> f (module Token_null)
  | t ->
    invalid_arg
      (Printf.sprintf "unknown token layer %S (expected vring, tree or null)" t)

module Cursor_off = struct
  let cursor = false
end

module Cursor_on = struct
  let cursor = true
end

let all =
  [ { key = "cc1"; role = Paper; token = Some "tree"; tag = Some 1; local = true;
      title = "CC1 ∘ TC (Algorithm 1, maximal concurrency)";
      make = with_token (fun (module T) -> (module Cc1_sys (T) (Cc1.Std (T)))) };
    { key = "cc2"; role = Paper; token = Some "tree"; tag = Some 2; local = true;
      title = "CC2 ∘ TC (Algorithm 2, professor fairness)";
      make =
        with_token (fun (module T) ->
            (module Cc23_sys (T) (Cc23.Cc2_std (T)) (Cursor_off))) };
    { key = "cc3"; role = Paper; token = Some "tree"; tag = Some 3; local = true;
      title = "CC3 ∘ TC (§5.4 modification, committee fairness)";
      make =
        with_token (fun (module T) ->
            (module Cc23_sys (T) (Cc23.Cc3_std (T)) (Cursor_on))) };
    { key = "cc1-inverted"; role = Broken; token = Some "tree"; tag = None;
      local = true;
      title = "CC1 with the priority order inverted (validation defect)";
      make =
        with_token (fun (module T) ->
            (module Cc1_sys (T) (Cc1.Inverted_std (T)))) };
    { key = "cc1-noready"; role = Broken; token = Some "tree"; tag = None;
      local = true;
      title = "CC1 with Ready ignoring member statuses (validation defect)";
      make =
        with_token (fun (module T) ->
            (module Cc1_sys (T) (Cc1.Unchecked_ready_std (T)))) };
    { key = "token-only"; role = Ablation; token = Some "vring"; tag = None;
      local = true;
      title = "CC2 where only the token holder convenes (§6 baseline of [3])";
      make =
        with_token (fun (module T) ->
            (module Cc23_sys (T) (Cc23.Token_only_std (T)) (Cursor_off))) };
    { key = "dining"; role = Baseline; token = None; tag = None; local = true;
      title = "Dining-philosophers baseline (§6)";
      make = (fun _ -> (module Snapcc_baselines.Dining)) };
    { key = "central"; role = Baseline; token = None; tag = None; local = false;
      title = "Centralized-manager baseline (§6, deliberately non-local)";
      make = (fun _ -> (module Snapcc_baselines.Central)) } ]

let find key = List.find_opt (fun e -> e.key = key) all

let local_over e token =
  e.local && (e.token = None || token <> Some "vring")

type resolved = {
  name : string;
  entry : entry;
  token : string option;
  tag : int option;
  sys : (module System.S);
}

let at (e : entry) name token =
  { name;
    entry = e;
    token;
    tag = (if token = e.token then e.tag else None);
    sys = e.make (Option.value token ~default:"") }

(* Every name of an entry, with its token: the key first (default token),
   then one [key-<suffix>] form per token layer. *)
let forms (e : entry) =
  (e.key, e.token)
  ::
  (match e.token with
   | None -> []
   | Some _ ->
     List.map (fun t -> (name_over e.key t, Some t)) token_keys)

let resolve name =
  List.find_map
    (fun e ->
      List.find_map
        (fun (n, token) -> if n = name then Some (at e name token) else None)
        (forms e))
    all

let of_tag tag =
  List.find_map
    (fun (e : entry) ->
      if e.tag = Some tag then Some (at e e.key e.token) else None)
    all

let any (_ : resolved) = true
let wired r = r.tag <> None

let checkable r =
  match r.entry.role with Paper | Broken -> true | Ablation | Baseline -> false

let lintable r =
  match r.entry.role with Paper | Baseline -> true | Broken | Ablation -> false

let names accepts =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (n, token) -> if accepts (at e n token) then Some n else None)
        (forms e))
    all

let keys accepts = List.filter (fun n -> find n <> None) (names accepts)

let describe accepts =
  let ns = names accepts in
  let keys = keys accepts in
  let suffixes =
    List.filter_map
      (fun t ->
        let sfx = "-" ^ token_suffix t in
        if List.exists (fun k -> List.mem (k ^ sfx) ns) keys then Some sfx
        else None)
      token_keys
  in
  match suffixes with
  | [] -> String.concat "|" keys
  | _ ->
    Printf.sprintf "%s, the token-layer ones also with a %s suffix"
      (String.concat "|" keys) (String.concat "|" suffixes)

let lookup ~what accepts name =
  match resolve name with
  | Some r when accepts r -> Ok r
  | Some _ | None ->
    Error (Printf.sprintf "%s takes %s, not %S" what (describe accepts) name)

let surfaces =
  [ ("run, smc", any);
    ("mp, net", wired);
    ("check, replay", checkable);
    ("lint", lintable) ]

let pp_catalog ppf () =
  Format.fprintf ppf
    "@[<v>algorithms (KEY runs over TOKEN; KEY-%s picks another layer):@,"
    (String.concat "|" (List.map token_suffix token_keys));
  Format.fprintf ppf "  %-13s %-9s %-6s %-4s %s@," "KEY" "ROLE" "TOKEN" "TAG"
    "TITLE";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-13s %-9s %-6s %-4s %s@," e.key (role_name e.role)
        (Option.value e.token ~default:"-")
        (match e.tag with Some t -> string_of_int t | None -> "-")
        e.title)
    all;
  Format.fprintf ppf "@,names each command takes:";
  List.iter
    (fun (cmds, accepts) ->
      Format.fprintf ppf "@,  @[<hov 15>%-14s@ %a@]" (cmds ^ ":")
        (Format.pp_print_list ~pp_sep:Format.pp_print_space
           Format.pp_print_string)
        (names accepts))
    surfaces;
  Format.fprintf ppf "@]"

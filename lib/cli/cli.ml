module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families

open Cmdliner

(* Shared validating converters: every numeric option goes through one of
   these so `ccsim sim --steps -3' and friends fail at parse time with a
   uniform message instead of misbehaving downstream. *)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let nonneg_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | _ ->
      Error (`Msg (Printf.sprintf "expected a non-negative integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let probability_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | _ ->
      Error (`Msg (Printf.sprintf "expected a probability in [0,1], got %S" s))
  in
  Arg.conv ~docv:"P" (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let topology name =
  if Sys.file_exists name then Snapcc_hypergraph.Hypergraph_io.load name
  else
    try Ok (Families.by_name name) with
    | Invalid_argument msg -> Error msg
    | H.Invalid msg -> Error msg

(* Every command names its topology with [-t]: a full topology name
   ("fig1", "ring6", "triangle3") or a committee-file path, parsed here at
   parse time, so the commands cannot drift. *)
let topo_conv : (string * H.t) Arg.conv =
  Arg.conv ~docv:"TOPO"
    ( (fun s ->
        match topology s with Ok h -> Ok (s, h) | Error e -> Error (`Msg e)),
      fun ppf (name, _) -> Format.pp_print_string ppf name )

(* ---- soak-mode burst resolution (`ccsim net') ----

   [--burst-at STEP] pins the corruption burst; [--soak] is a shorthand
   that derives it from the horizon.  Both flags together are legal and an
   explicit [--burst-at] always wins — [resolve_burst] is the single
   decision point, exercised directly by the cmdliner-level tests. *)

let burst_arg =
  Arg.(value & opt (some int) None
       & info [ "burst-at" ] ~docv:"STEP"
           ~doc:"Soak mode: inject a corruption burst (corrupt half the \
                 nodes: cores, caches and in-flight snapshots) at STEP and \
                 report the time to stabilize.")

let soak_arg =
  Arg.(value & flag
       & info [ "soak" ]
           ~doc:"Shorthand for --burst-at <steps/2>.  When both flags are \
                 given, the explicit --burst-at STEP wins and --soak is \
                 ignored.")

let resolve_burst ~steps ~soak burst =
  match burst with
  | Some _ as b -> b
  | None -> if soak then Some (steps / 2) else None

(* ---- fault steps (`ccsim run --fault-at', `ccsim net --burst-at') ---- *)

let fault_arg =
  Arg.(value & opt (some int) None
       & info [ "fault-at" ] ~docv:"STEP"
           ~doc:"Inject a transient fault (corrupt half the processes) at \
                 STEP, which must lie within the --steps horizon.")

let check_step ~flag ~steps = function
  | Some at when at < 0 || at >= steps ->
    Error
      (Printf.sprintf "%s %d is outside the horizon of --steps %d (STEP must \
                       be in [0, %d))" flag at steps steps)
  | at -> Ok at

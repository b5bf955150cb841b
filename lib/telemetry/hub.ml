type t = {
  clock : (unit -> float) option;  (* [None]: logical clock (seq as µs) *)
  mutable sinks : Sink.t list;
  mutable seq : int;
  mutable last_us : int;
  registry : Registry.t;
}

let create ?clock () =
  { clock; sinks = []; seq = 0; last_us = 0; registry = Registry.create () }

let add_sink t s = t.sinks <- t.sinks @ [ s ]
let seq t = t.seq
let registry t = t.registry

(* a loop, not [List.iter]: no closure per event *)
let rec fan_out stamped = function
  | [] -> ()
  | s :: rest ->
    Sink.emit s stamped;
    fan_out stamped rest

let emit t ev =
  let t_us =
    match t.clock with
    | None -> t.seq
    | Some clock ->
      (* clamp: catapult timestamps must be non-decreasing *)
      max t.last_us (int_of_float (clock () *. 1e6))
  in
  t.last_us <- t_us;
  let stamped = { Event.seq = t.seq; t_us; ev } in
  t.seq <- t.seq + 1;
  fan_out stamped t.sinks

let close t = List.iter Sink.close t.sinks

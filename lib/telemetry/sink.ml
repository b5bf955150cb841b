type ring_state = {
  capacity : int;
  mutable data : Event.stamped array;  (* grows up to [capacity] *)
  mutable len : int;  (* stored events *)
  mutable head : int;  (* insertion point once saturated *)
}

type kind =
  | Jsonl of { write : string -> unit; buf : Buffer.t }
  | Ring of ring_state
  | Catapult of { write : string -> unit; mutable first : bool }
  | Custom of { emit : Event.stamped -> unit; close : unit -> unit }

type t = { kind : kind; mutable closed : bool }

let jsonl write =
  { kind = Jsonl { write; buf = Buffer.create 256 }; closed = false }

let custom ~emit ~close = { kind = Custom { emit; close }; closed = false }

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  { kind =
      Ring { capacity; data = [||]; len = 0; head = 0 };
    closed = false }

let catapult write =
  write "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  { kind = Catapult { write; first = true }; closed = false }

let ring_events t =
  match t.kind with
  | Ring r ->
    List.init r.len (fun i ->
        (* oldest first: once saturated, [head] is the oldest slot *)
        if r.len < r.capacity then r.data.(i)
        else r.data.((r.head + i) mod r.capacity))
  | Jsonl _ | Catapult _ | Custom _ -> []

let ring_push r (s : Event.stamped) =
  if r.len < r.capacity then begin
    if r.len = Array.length r.data then begin
      let cap = min r.capacity (max 16 (2 * Array.length r.data)) in
      let bigger = Array.make cap s in
      Array.blit r.data 0 bigger 0 r.len;
      r.data <- bigger
    end;
    r.data.(r.len) <- s;
    r.len <- r.len + 1;
    if r.len = r.capacity then r.head <- 0
  end
  else begin
    r.data.(r.head) <- s;
    r.head <- (r.head + 1) mod r.capacity
  end

(* ---- JSONL ----

   Each line is rendered straight into the sink's buffer, field by field,
   with no [Json.t] tree: the bytes {!Event.to_json} would print under
   [Json.to_string], with ["seq"] first, and never the timestamp (bodies
   are deterministic, see the determinism test).  [key] arguments are the
   literal [,"name":] prefixes. *)

(* [n <= 0], most significant digit first: negative remainders keep
   [min_int] in range *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let int_ b key n =
  Buffer.add_string b key;
  add_int b n

let str_ b key s =
  Buffer.add_string b key;
  Json.escape b s

let rec add_rest b = function
  | [] -> ()
  | n :: rest ->
    Buffer.add_char b ',';
    add_int b n;
    add_rest b rest

let ints_ b key l =
  Buffer.add_string b key;
  Buffer.add_char b '[';
  (match l with
   | [] -> ()
   | n :: rest ->
     add_int b n;
     add_rest b rest);
  Buffer.add_char b ']'

let render_jsonl b (s : Event.stamped) =
  int_ b {|{"seq":|} s.seq;
  Buffer.add_string b {|,"ev":"|};
  Buffer.add_string b (Event.kind s.ev);
  Buffer.add_char b '"';
  (match s.ev with
   | Event.Run_start { algo; daemon; workload; seed; n; m; topo } ->
     str_ b {|,"algo":|} algo;
     str_ b {|,"daemon":|} daemon;
     str_ b {|,"workload":|} workload;
     int_ b {|,"seed":|} seed;
     int_ b {|,"n":|} n;
     int_ b {|,"m":|} m;
     str_ b {|,"topo":|} topo
   | Event.Step { step; round; selected; neutralized; meetings } ->
     int_ b {|,"step":|} step;
     int_ b {|,"round":|} round;
     ints_ b {|,"selected":|} selected;
     ints_ b {|,"neutralized":|} neutralized;
     ints_ b {|,"meetings":|} meetings
   | Event.Action { step; p; label } ->
     int_ b {|,"step":|} step;
     int_ b {|,"p":|} p;
     str_ b {|,"label":|} label
   | Event.Convene { step; round; eid } | Event.Terminate { step; round; eid }
     ->
     int_ b {|,"step":|} step;
     int_ b {|,"round":|} round;
     int_ b {|,"eid":|} eid
   | Event.Wait_open { step; round; p } ->
     int_ b {|,"step":|} step;
     int_ b {|,"round":|} round;
     int_ b {|,"p":|} p
   | Event.Wait_close { step; round; p; waited_steps; waited_rounds } ->
     int_ b {|,"step":|} step;
     int_ b {|,"round":|} round;
     int_ b {|,"p":|} p;
     int_ b {|,"waited_steps":|} waited_steps;
     int_ b {|,"waited_rounds":|} waited_rounds
   | Event.Verdict { step; rule; detail } ->
     int_ b {|,"step":|} step;
     str_ b {|,"rule":|} rule;
     str_ b {|,"detail":|} detail
   | Event.Token_handoff { step; p } ->
     int_ b {|,"step":|} step;
     int_ b {|,"p":|} p
   | Event.Fault { step; victims } ->
     int_ b {|,"step":|} step;
     ints_ b {|,"victims":|} victims
   | Event.Recover { step; eid } ->
     int_ b {|,"step":|} step;
     int_ b {|,"eid":|} eid
   | Event.Mc_frontier { configs; transitions } ->
     int_ b {|,"configs":|} configs;
     int_ b {|,"transitions":|} transitions
   | Event.Mp_activated { step; p; label } -> (
     int_ b {|,"step":|} step;
     int_ b {|,"p":|} p;
     match label with
     | Some l -> str_ b {|,"label":|} l
     | None -> Buffer.add_string b {|,"label":null|})
   | Event.Mp_delivered { step; dst; src } ->
     int_ b {|,"step":|} step;
     int_ b {|,"dst":|} dst;
     int_ b {|,"src":|} src
   | Event.Net_sent { step; src; dst; bytes } ->
     int_ b {|,"step":|} step;
     int_ b {|,"src":|} src;
     int_ b {|,"dst":|} dst;
     int_ b {|,"bytes":|} bytes
   | Event.Net_delivered { step; src; dst; bytes; latency_us } ->
     int_ b {|,"step":|} step;
     int_ b {|,"src":|} src;
     int_ b {|,"dst":|} dst;
     int_ b {|,"bytes":|} bytes;
     int_ b {|,"latency_us":|} latency_us
   | Event.Net_dropped { step; src; dst; reason } ->
     int_ b {|,"step":|} step;
     int_ b {|,"src":|} src;
     int_ b {|,"dst":|} dst;
     str_ b {|,"reason":|} reason
   | Event.Clock { step; p; k; clock; obs_code; disc } ->
     int_ b {|,"step":|} step;
     int_ b {|,"p":|} p;
     int_ b {|,"k":|} k;
     ints_ b {|,"clock":|} clock;
     int_ b {|,"obs_code":|} obs_code;
     int_ b {|,"disc":|} disc
   | Event.Smc_trial
       { trial; seed; stabilized; convenes; violations; deadlocked; steps } ->
     int_ b {|,"trial":|} trial;
     int_ b {|,"seed":|} seed;
     (match stabilized with
      | Some s -> int_ b {|,"stabilized":|} s
      | None -> Buffer.add_string b {|,"stabilized":null|});
     int_ b {|,"convenes":|} convenes;
     int_ b {|,"violations":|} violations;
     Buffer.add_string b
       (if deadlocked then {|,"deadlocked":true|} else {|,"deadlocked":false|});
     int_ b {|,"steps":|} steps
   | Event.Run_end { outcome; steps; rounds } ->
     str_ b {|,"outcome":|} outcome;
     int_ b {|,"steps":|} steps;
     int_ b {|,"rounds":|} rounds);
  Buffer.add_string b "}\n"

(* One Chrome trace event, rendered immediately. *)
let catapult_json (s : Event.stamped) =
  let base ?(args = []) ~name ~ph ~tid extra =
    Json.Obj
      ([ ("name", Json.String name);
         ("ph", Json.String ph);
         ("ts", Json.Int s.t_us);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid) ]
      @ extra
      @ (if args = [] then [] else [ ("args", Json.Obj args) ]))
  in
  let instant ?(tid = 0) ?(args = []) name =
    base ~name ~ph:"i" ~tid ~args [ ("s", Json.String "t") ]
  in
  match s.ev with
  | Event.Convene { eid; step; _ } ->
    Some
      (base
         ~name:(Printf.sprintf "committee e%d" eid)
         ~ph:"B" ~tid:(1000 + eid)
         ~args:[ ("step", Json.Int step) ]
         [])
  | Event.Terminate { eid; step; _ } ->
    Some
      (base
         ~name:(Printf.sprintf "committee e%d" eid)
         ~ph:"E" ~tid:(1000 + eid)
         ~args:[ ("step", Json.Int step) ]
         [])
  | Event.Step { meetings; step; _ } ->
    Some
      (base ~name:"concurrency" ~ph:"C" ~tid:0
         ~args:
           [ ("meetings", Json.Int (List.length meetings));
             ("step", Json.Int step) ]
         [])
  | Event.Action { p; label; step } ->
    Some (instant ~tid:p ~args:[ ("step", Json.Int step) ] label)
  | Event.Fault { victims; step } ->
    Some
      (base ~name:"fault" ~ph:"i" ~tid:0
         ~args:
           [ ("victims", Json.List (List.map (fun v -> Json.Int v) victims));
             ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Verdict { rule; step; _ } ->
    Some
      (base ~name:("violation: " ^ rule) ~ph:"i" ~tid:0
         ~args:[ ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Token_handoff { p; step } ->
    Some (instant ~tid:p ~args:[ ("step", Json.Int step) ] "token")
  | Event.Recover { eid; step } ->
    Some
      (base ~name:"recovered" ~ph:"i" ~tid:0
         ~args:[ ("eid", Json.Int eid); ("step", Json.Int step) ]
         [ ("s", Json.String "g") ])
  | Event.Net_delivered { src; dst; bytes; latency_us; step } ->
    Some
      (instant ~tid:dst
         ~args:
           [ ("src", Json.Int src);
             ("bytes", Json.Int bytes);
             ("latency_us", Json.Int latency_us);
             ("step", Json.Int step) ]
         "net recv")
  | Event.Net_dropped { src; dst; reason; step } ->
    Some
      (base ~name:("net drop: " ^ reason) ~ph:"i" ~tid:dst
         ~args:[ ("src", Json.Int src); ("step", Json.Int step) ]
         [ ("s", Json.String "t") ])
  | Event.Run_start _ | Event.Run_end _ | Event.Wait_open _
  | Event.Wait_close _ | Event.Mc_frontier _ | Event.Mp_activated _
  | Event.Mp_delivered _ | Event.Net_sent _ | Event.Clock _
  | Event.Smc_trial _ ->
    None

let emit t s =
  if not t.closed then
    match t.kind with
    | Jsonl { write; buf } ->
      Buffer.clear buf;
      render_jsonl buf s;
      write (Buffer.contents buf)
    | Ring r -> ring_push r s
    | Catapult c ->
      (match catapult_json s with
       | None -> ()
       | Some j ->
         if c.first then c.first <- false else c.write ",";
         c.write (Json.to_string j))
    | Custom c -> c.emit s

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.kind with
    | Catapult c -> c.write "]}"
    | Custom c -> c.close ()
    | Jsonl _ | Ring _ -> ()
  end

let version = 3
let magic = "SNCC"

let algo_tag name =
  Option.bind (Snapcc_mc.Systems.resolve name) (fun r -> r.Snapcc_mc.Systems.tag)

type msg =
  | Hello of { id : int }
  | Init of { seed : int; topo : string; core : string; cache : string }
  | Ready
  | Activate of { step : int; req_in : bool array; req_out : bool array }
  | Activated of { label : string option; core : string; clock : string }
  | Deliver of { src : int; state : string; clock : string }
  | Delivered
  | Deliver_full of {
      src : int;
      seq : int;
      form : int;
      payload : string;
      clock : string;
    }
  | Deliver_delta of {
      src : int;
      seq : int;
      base_seq : int;
      delta : string;
      clock : string;
    }
  | Resync of { reason : string }
  | Corrupt of { core : string; cache : string }
  | Corrupted
  | Decode_error of { reason : string }
  | Bye
  | Bye_ack of { frames : int; decode_errors : int }

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_algo of int
  | Bad_checksum
  | Bad_kind of int
  | Truncated
  | Trailing of int
  | Bad_payload of string

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Bad_algo t -> Printf.sprintf "unexpected algo tag %d" t
  | Bad_checksum -> "checksum mismatch"
  | Bad_kind k -> Printf.sprintf "unknown message kind %d" k
  | Truncated -> "truncated frame"
  | Trailing n -> Printf.sprintf "%d trailing bytes" n
  | Bad_payload why -> "bad payload: " ^ why

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* --- little binary writer / reader ------------------------------------- *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u32 b v =
  w_u8 b (v lsr 24);
  w_u8 b (v lsr 16);
  w_u8 b (v lsr 8);
  w_u8 b v

let w_i64 b v =
  let v = Int64.of_int v in
  for shift = 7 downto 0 do
    w_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * shift)) land 0xff)
  done

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_bools b a =
  w_u32 b (Array.length a);
  Array.iter (fun x -> w_u8 b (if x then 1 else 0)) a

exception Malformed of string
exception Unknown_kind of int

type reader = { src : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.src then raise (Malformed "truncated payload")

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v =
    (Char.code r.src.[r.pos] lsl 24)
    lor (Char.code r.src.[r.pos + 1] lsl 16)
    lor (Char.code r.src.[r.pos + 2] lsl 8)
    lor Char.code r.src.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r_u8 r))
  done;
  Int64.to_int !v

let r_str r =
  let n = r_u32 r in
  if n > String.length r.src - r.pos then raise (Malformed "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_bools r =
  let n = r_u32 r in
  if n > String.length r.src - r.pos then raise (Malformed "truncated array");
  Array.init n (fun _ ->
      match r_u8 r with
      | 0 -> false
      | 1 -> true
      | b -> raise (Malformed (Printf.sprintf "bool byte %d" b)))

(* --- message <-> payload ------------------------------------------------ *)

let kind_of_msg = function
  | Hello _ -> 1
  | Init _ -> 2
  | Ready -> 3
  | Activate _ -> 4
  | Activated _ -> 5
  | Deliver _ -> 6
  | Delivered -> 7
  | Corrupt _ -> 8
  | Corrupted -> 9
  | Decode_error _ -> 10
  | Bye -> 11
  | Bye_ack _ -> 12
  | Deliver_full _ -> 13
  | Deliver_delta _ -> 14
  | Resync _ -> 15

let write_payload b = function
  | Hello { id } -> w_i64 b id
  | Init { seed; topo; core; cache } ->
    w_i64 b seed;
    w_str b topo;
    w_str b core;
    w_str b cache
  | Ready -> ()
  | Activate { step; req_in; req_out } ->
    w_i64 b step;
    w_bools b req_in;
    w_bools b req_out
  | Activated { label; core; clock } ->
    (match label with
     | None -> w_u8 b 0
     | Some l ->
       w_u8 b 1;
       w_str b l);
    w_str b core;
    w_str b clock
  | Deliver { src; state; clock } ->
    w_i64 b src;
    w_str b state;
    w_str b clock
  | Delivered -> ()
  | Deliver_full { src; seq; form; payload; clock } ->
    w_i64 b src;
    w_i64 b seq;
    w_u8 b form;
    w_str b payload;
    w_str b clock
  | Deliver_delta { src; seq; base_seq; delta; clock } ->
    w_i64 b src;
    w_i64 b seq;
    w_i64 b base_seq;
    w_str b delta;
    w_str b clock
  | Resync { reason } -> w_str b reason
  | Corrupt { core; cache } ->
    w_str b core;
    w_str b cache
  | Corrupted -> ()
  | Decode_error { reason } -> w_str b reason
  | Bye -> ()
  | Bye_ack { frames; decode_errors } ->
    w_i64 b frames;
    w_i64 b decode_errors

let read_payload r kind =
  match kind with
  | 1 -> Hello { id = r_i64 r }
  | 2 ->
    let seed = r_i64 r in
    let topo = r_str r in
    let core = r_str r in
    let cache = r_str r in
    Init { seed; topo; core; cache }
  | 3 -> Ready
  | 4 ->
    let step = r_i64 r in
    let req_in = r_bools r in
    let req_out = r_bools r in
    Activate { step; req_in; req_out }
  | 5 ->
    let label =
      match r_u8 r with
      | 0 -> None
      | 1 -> Some (r_str r)
      | b -> raise (Malformed (Printf.sprintf "option byte %d" b))
    in
    let core = r_str r in
    Activated { label; core; clock = r_str r }
  | 6 ->
    let src = r_i64 r in
    let state = r_str r in
    Deliver { src; state; clock = r_str r }
  | 7 -> Delivered
  | 8 ->
    let core = r_str r in
    Corrupt { core; cache = r_str r }
  | 9 -> Corrupted
  | 10 -> Decode_error { reason = r_str r }
  | 11 -> Bye
  | 12 ->
    let frames = r_i64 r in
    Bye_ack { frames; decode_errors = r_i64 r }
  | 13 ->
    let src = r_i64 r in
    let seq = r_i64 r in
    let form = r_u8 r in
    if form > 1 then raise (Malformed (Printf.sprintf "payload form %d" form));
    let payload = r_str r in
    Deliver_full { src; seq; form; payload; clock = r_str r }
  | 14 ->
    let src = r_i64 r in
    let seq = r_i64 r in
    let base_seq = r_i64 r in
    let delta = r_str r in
    Deliver_delta { src; seq; base_seq; delta; clock = r_str r }
  | 15 -> Resync { reason = r_str r }
  | k -> raise (Unknown_kind k)

(* --- frame body --------------------------------------------------------- *)

let encode ~algo msg =
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  w_u8 b version;
  w_u8 b algo;
  w_u8 b (kind_of_msg msg);
  write_payload b msg;
  let crc = crc32 (Buffer.contents b) in
  w_u32 b (Int32.to_int (Int32.logand crc 0xFFFFFFFFl));
  Buffer.contents b

let header_len = String.length magic + 3 (* version + algo + kind *)
let crc_len = 4

let decode ?expect body =
  let len = String.length body in
  if len < header_len + crc_len then Error Truncated
  else if String.sub body 0 (String.length magic) <> magic then Error Bad_magic
  else
    let v = Char.code body.[4] in
    if v <> version then Error (Bad_version v)
    else
      let tag = Char.code body.[5] in
      let kind = Char.code body.[6] in
      let stored =
        Int32.logor
          (Int32.shift_left (Int32.of_int (Char.code body.[len - 4])) 24)
          (Int32.of_int
             ((Char.code body.[len - 3] lsl 16)
             lor (Char.code body.[len - 2] lsl 8)
             lor Char.code body.[len - 1]))
      in
      if crc32 (String.sub body 0 (len - crc_len)) <> stored then
        Error Bad_checksum
      else
        match expect with
        | Some e when tag <> 0 && tag <> e -> Error (Bad_algo tag)
        | _ -> (
          let r = { src = String.sub body header_len (len - header_len - crc_len);
                    pos = 0 }
          in
          match read_payload r kind with
          | exception Unknown_kind k -> Error (Bad_kind k)
          | exception Malformed why -> Error (Bad_payload why)
          | msg ->
            if r.pos <> String.length r.src then
              Error (Trailing (String.length r.src - r.pos))
            else Ok (tag, msg))

let corrupt_body rng body =
  let b = Bytes.of_string body in
  (* a repeated (byte, bit) draw would flip its bit back and could leave
     the frame unchanged; redrawing only on such a collision keeps the
     pairs distinct and every collision-free draw sequence as it was *)
  let rec flip seen k =
    if k > 0 then begin
      let i = Random.State.int rng (Bytes.length b) in
      let bit = Random.State.int rng 8 in
      if List.mem (i, bit) seen then flip seen k
      else begin
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        flip ((i, bit) :: seen) (k - 1)
      end
    end
  in
  flip [] (1 + Random.State.int rng 4);
  Bytes.to_string b

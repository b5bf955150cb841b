let max_frame = 16 * 1024 * 1024

let rec retry_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let write_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    let n = retry_intr (fun () -> Unix.write fd bytes !off (len - !off)) in
    if n = 0 then raise End_of_file;
    off := !off + n
  done

let set_len b off len =
  Bytes.set_uint8 b off ((len lsr 24) land 0xff);
  Bytes.set_uint8 b (off + 1) ((len lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 2) ((len lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 3) (len land 0xff)

let get_len b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let write fd body =
  let len = String.length body in
  let frame = Bytes.create (4 + len) in
  set_len frame 0 len;
  Bytes.blit_string body 0 frame 4 len;
  write_all fd frame (4 + len)

type conn = {
  fd : Unix.file_descr;
  mutable wbuf : Bytes.t;
  mutable wlen : int;
  mutable rbuf : Bytes.t;
  mutable rpos : int;  (* first byte not yet returned *)
  mutable rlen : int;  (* end of the bytes read so far *)
}

let initial = 512

let conn fd =
  { fd; wbuf = Bytes.create initial; wlen = 0; rbuf = Bytes.create initial;
    rpos = 0; rlen = 0 }

let queue c body =
  let len = String.length body in
  let need = c.wlen + 4 + len in
  if need > Bytes.length c.wbuf then begin
    let b = Bytes.create (max need (2 * Bytes.length c.wbuf)) in
    Bytes.blit c.wbuf 0 b 0 c.wlen;
    c.wbuf <- b
  end;
  set_len c.wbuf c.wlen len;
  Bytes.blit_string body 0 c.wbuf (c.wlen + 4) len;
  c.wlen <- need

let flush c =
  if c.wlen > 0 then begin
    write_all c.fd c.wbuf c.wlen;
    c.wlen <- 0
  end

let has_frame c =
  let avail = c.rlen - c.rpos in
  avail >= 4
  &&
  let len = get_len c.rbuf c.rpos in
  len > max_frame || avail >= 4 + len

(* Read whatever the descriptor has, after making room for [need]
   buffered bytes from [rpos]; [false] at end of file. *)
let fill c need =
  if c.rpos + need > Bytes.length c.rbuf then begin
    let avail = c.rlen - c.rpos in
    let b =
      if need > Bytes.length c.rbuf then
        Bytes.create (max need (2 * Bytes.length c.rbuf))
      else c.rbuf
    in
    Bytes.blit c.rbuf c.rpos b 0 avail;
    c.rbuf <- b;
    c.rpos <- 0;
    c.rlen <- avail
  end;
  let n =
    retry_intr (fun () ->
        Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen))
  in
  c.rlen <- c.rlen + n;
  n > 0

let read c =
  let rec buffered k = c.rlen - c.rpos >= k || (fill c k && buffered k) in
  if not (buffered 4) then Error (if c.rlen = c.rpos then `Eof else `Truncated)
  else
    let len = get_len c.rbuf c.rpos in
    if len > max_frame then Error (`Oversized len)
    else if not (buffered (4 + len)) then Error `Truncated
    else begin
      let body = Bytes.sub_string c.rbuf (c.rpos + 4) len in
      c.rpos <- c.rpos + 4 + len;
      if c.rpos = c.rlen then begin
        c.rpos <- 0;
        c.rlen <- 0
      end;
      Ok body
    end

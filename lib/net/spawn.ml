type mode = Fork | Exec of string

type node = { id : int; pid : int; fd : Unix.file_descr }

let fail fmt = Printf.ksprintf failwith fmt

(* Consume the node's [Hello] and check it names the expected id. *)
let handshake c ~expect =
  match Wire.read c with
  | Error (`Eof | `Truncated) -> fail "net: node closed the connection before hello"
  | Error (`Oversized len) -> fail "net: oversized hello frame (%d bytes)" len
  | Ok body -> (
    match Codec.decode body with
    | Ok (_, Codec.Hello { id }) -> (
      match expect with
      | Some e when e <> id -> fail "net: node said hello as %d, expected %d" id e
      | _ -> id)
    | Ok (_, _) -> fail "net: expected hello frame"
    | Error e -> fail "net: bad hello frame: %s" (Codec.error_to_string e))

let fork_pool ~n ~serve =
  let nodes = ref [] in
  for id = 0 to n - 1 do
    let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      (* the child must not hold the parent ends of earlier nodes' pairs *)
      List.iter (fun nd -> try Unix.close nd.fd with Unix.Unix_error _ -> ())
        !nodes;
      Unix.close parent_fd;
      let ok = try serve ~id child_fd; true with _ -> false in
      (try Unix.close child_fd with Unix.Unix_error _ -> ());
      Unix._exit (if ok then 0 else 1)
    | pid ->
      Unix.close child_fd;
      nodes := { id; pid; fd = parent_fd } :: !nodes
  done;
  Array.of_list (List.rev !nodes)

let launch_fork n =
  let arr = fork_pool ~n ~serve:(fun ~id fd -> Node.serve ~id fd) in
  let conns = Array.map (fun nd -> Wire.conn nd.fd) arr in
  Array.iteri (fun id c -> ignore (handshake c ~expect:(Some id))) conns;
  (arr, conns)

let launch_exec exe n =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen sock n;
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let pids =
        Array.init n (fun id ->
            Unix.create_process exe
              [| exe; "node"; "--id"; string_of_int id;
                 "--connect"; string_of_int port |]
              Unix.stdin Unix.stdout Unix.stderr)
      in
      let nodes = Array.make n None in
      for _ = 1 to n do
        let fd, _addr = Unix.accept sock in
        (* a queued frame must leave at its flush, not wait for the
           reply to the previous one *)
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let c = Wire.conn fd in
        let id = handshake c ~expect:None in
        if id < 0 || id >= n then fail "net: hello from unknown node %d" id;
        if nodes.(id) <> None then fail "net: duplicate hello from node %d" id;
        nodes.(id) <- Some ({ id; pid = pids.(id); fd }, c)
      done;
      let nodes =
        Array.map (function Some nc -> nc | None -> fail "net: missing node") nodes
      in
      (Array.map fst nodes, Array.map snd nodes))

let launch mode ~n =
  match mode with Fork -> launch_fork n | Exec exe -> launch_exec exe n

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let shutdown nodes =
  Array.iter
    (fun nd ->
      (try Unix.close nd.fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] nd.pid) with Unix.Unix_error _ -> ())
    nodes

let kill nodes =
  Array.iter
    (fun nd -> try Unix.kill nd.pid Sys.sigkill with Unix.Unix_error _ -> ())
    nodes

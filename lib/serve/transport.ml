(* Transport: fd lifecycle for the serve plane.

   Owns listening sockets, the accept path, per-connection buffered
   reads (short-read/EINTR loops), the write-everything loop, the
   select round, idle-timeout reaping and the max-connection cap.
   Bytes go in, {!Protocol.frame}s come out through the [handle]
   callback; responses go back through {!send}.  No request semantics
   live here -- that is {!Protocol} (parsing) and {!Dispatch}
   (queueing + engine). *)

module Metrics = Mae_obs.Metrics

type addr = Tcp of { host : string; port : int } | Unix_sock of string

let pp_addr ppf = function
  | Tcp { host; port } -> Format.fprintf ppf "%s:%d" host port
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path

(* "7788" | "host:7788" -> TCP (empty host = loopback); "unix:PATH" or
   anything with a slash -> Unix-domain socket path. *)
let parse_addr s =
  let unix_prefix = "unix:" in
  let n = String.length unix_prefix in
  if String.length s > n && String.equal (String.sub s 0 n) unix_prefix then
    Ok (Unix_sock (String.sub s n (String.length s - n)))
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i -> begin
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 ->
            Ok (Tcp { host = (if host = "" then "127.0.0.1" else host); port = p })
        | _ -> Error (Printf.sprintf "bad port in address %S" s)
      end
    | None -> begin
        match int_of_string_opt s with
        | Some p when p >= 0 && p <= 65535 ->
            Ok (Tcp { host = "127.0.0.1"; port = p })
        | _ ->
            Error
              (Printf.sprintf
                 "bad address %S (want PORT, HOST:PORT or unix:PATH)" s)
      end

(* --- sockets --- *)

let socket_of_addr = function
  | Tcp { host; port } ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Ok (fd, Unix.ADDR_INET (inet, port))
  | Unix_sock path ->
      let stale =
        if Sys.file_exists path then begin
          match (Unix.stat path).Unix.st_kind with
          | Unix.S_SOCK ->
              Sys.remove path;
              Ok ()
          | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
        end
        else Ok ()
      in
      begin
        match stale with
        | Error _ as e -> e
        | Ok () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Ok (fd, Unix.ADDR_UNIX path)
      end

let bound_addr fd = function
  | Unix_sock path -> Unix_sock path
  | Tcp { host; port = _ } -> (
      (* learn the kernel-assigned port when binding port 0 *)
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp { host; port }
      | _ -> Tcp { host; port = 0 })

let listen_on addr =
  match socket_of_addr addr with
  | Error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Format.asprintf "cannot listen on %a: %s" pp_addr addr
           (Unix.error_message e))
  | Ok (fd, sockaddr) -> (
      match
        Unix.bind fd sockaddr;
        Unix.listen fd 64
      with
      | () -> Ok (fd, bound_addr fd addr)
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error
            (Format.asprintf "cannot listen on %a: %s" pp_addr addr
               (Unix.error_message e)))

let unlink_unix_addr = function
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()

(* Write the whole buffer or report failure.  A signal landing mid-frame
   must not drop the rest of a response (the old catch-all did exactly
   that), so EINTR retries at the same offset; EAGAIN on a non-blocking
   peer waits for writability (bounded, so one stuck client cannot hang
   the daemon forever).  Any other error is a dead peer: false. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  (* one write per iteration so a retry resumes at the exact offset the
     short or interrupted write left off *)
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match Unix.select [] [ fd ] [] 30.0 with
          | _, [ _ ], _ -> go off
          | _ -> false (* writability never came: give up on the peer *)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error _ -> false)
      | exception Unix.Unix_error _ -> false
  in
  go 0

(* --- connections --- *)

type plane = Request_plane | Obs_plane

type conn = {
  fd : Unix.file_descr;
  plane : plane;
  peer : string;
  rbuf : Buffer.t;
  mutable decoder : Protocol.decoder;
  mutable last_activity : float;  (** monotonic, for idle reaping *)
  mutable frames_in : int;  (** frames decoded on this connection *)
  mutable pending : int;  (** submitted jobs not yet answered *)
  mutable closing : bool;  (** close once [pending] drains to 0 *)
  mutable dead : bool;  (** fd closed; late answers skip the write *)
}

type config = {
  max_request_bytes : int;  (** one request line / HTTP body bound *)
  idle_timeout_s : float;
  max_connections : int;
}

(* --- registry instruments --- *)

let connections_total =
  Metrics.counter "mae_serve_connections_total"
    ~help:"Request-plane connections accepted"

let connections_reused =
  Metrics.counter "mae_serve_connections_reused_total"
    ~help:
      "Request-plane connections that carried a second request \
       (keep-alive or pipelining paying off)"

let connections_rejected =
  Metrics.counter "mae_serve_connections_rejected_total"
    ~help:"Connections refused at the max-connection cap"

let connections_idle_closed =
  Metrics.counter "mae_serve_connections_idle_closed_total"
    ~help:"Connections reaped by the idle timeout"

let open_connections_gauge =
  Metrics.gauge "mae_serve_open_connections"
    ~help:"Request-plane connections currently open"

type t = {
  config : config;
  listeners : (Unix.file_descr * plane) list;
  mutable conns : conn list;
  chunk : Bytes.t;  (** every connection's socket reads land here first *)
}

let create ~config ~listeners =
  { config; listeners; conns = []; chunk = Bytes.create 65536 }

let open_request_conns t =
  List.length (List.filter (fun c -> c.plane = Request_plane) t.conns)

let sync_gauge t =
  Metrics.set open_connections_gauge (Float.of_int (open_request_conns t))

let close t conn =
  if not conn.dead then begin
    conn.dead <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c.fd != conn.fd) t.conns;
    if conn.plane = Request_plane then sync_gauge t
  end

let send t conn framing response =
  if not conn.dead then begin
    let ok = write_all conn.fd (Protocol.encode framing response) in
    if (not ok) || Protocol.will_close framing response then close t conn
  end

let accept t listener plane =
  match Unix.accept listener with
  | fd, peer_addr ->
      if List.length t.conns >= t.config.max_connections then begin
        (* over the cap: shed at the door.  Accept-then-close beats
           leaving the backlog to time out -- the client learns now. *)
        Metrics.incr connections_rejected;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        let peer =
          match peer_addr with
          | Unix.ADDR_INET (a, p) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX _ -> "unix"
        in
        (* non-blocking so the read loop can drain the socket fully and
           stop exactly at EAGAIN instead of risking a block *)
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        let conn =
          {
            fd;
            plane;
            peer;
            rbuf = Buffer.create 512;
            decoder = Protocol.initial;
            last_activity = Mae_obs.Clock.monotonic ();
            frames_in = 0;
            pending = 0;
            closing = false;
            dead = false;
          }
        in
        t.conns <- conn :: t.conns;
        if plane = Request_plane then begin
          Metrics.incr connections_total;
          sync_gauge t
        end
      end
  | exception Unix.Unix_error _ -> ()

(* Decode every complete frame in the connection buffer, in order, and
   hand each to [handle].  [handle] may answer inline (closing the
   connection on a framing error) or queue the frame; the loop stops
   the moment the connection dies. *)
let deliver_frames t conn ~handle =
  let data = Buffer.contents conn.rbuf in
  let len = String.length data in
  let rec go pos =
    if conn.dead || pos >= len then pos
    else begin
      match
        Protocol.decode ~pos ~max_bytes:t.config.max_request_bytes conn.decoder
          data
      with
      | Protocol.Await -> pos
      | Protocol.Skip (d, k) ->
          conn.decoder <- d;
          go (pos + k)
      | Protocol.Frame (frame, d, k) ->
          conn.decoder <- d;
          conn.frames_in <- conn.frames_in + 1;
          if conn.frames_in = 2 && conn.plane = Request_plane then
            Metrics.incr connections_reused;
          handle conn frame;
          go (pos + k)
    end
  in
  let consumed = go 0 in
  if not conn.dead then begin
    if consumed > 0 then begin
      Buffer.clear conn.rbuf;
      Buffer.add_substring conn.rbuf data consumed (len - consumed)
    end
  end

let service t conn ~handle =
  (* Loop on short reads: the socket is non-blocking, so keep reading
     until EAGAIN (a partial chunk is taken as "drained" too -- anything
     left wakes the next select) and retry EINTR at the same spot rather
     than dropping the wakeup. *)
  let rec fill total =
    match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> `Eof
    | n ->
        Buffer.add_subbytes conn.rbuf t.chunk 0 n;
        if n = Bytes.length t.chunk then fill (total + n) else `Data (total + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill total
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if total = 0 then `Nothing else `Data total
    | exception Unix.Unix_error _ -> `Err
  in
  match fill 0 with
  | `Nothing -> ()
  | `Err -> close t conn
  | `Eof ->
      (* EOF: answer whatever complete frames are already buffered,
         then close -- once any queued work for this connection has
         been answered.  (A client that shut down only its write side
         still reads its last responses.) *)
      deliver_frames t conn ~handle;
      if conn.pending = 0 then close t conn else conn.closing <- true
  | `Data _ ->
      conn.last_activity <- Mae_obs.Clock.monotonic ();
      deliver_frames t conn ~handle

let reap t =
  let now = Mae_obs.Clock.monotonic () in
  List.iter
    (fun conn ->
      if conn.closing && conn.pending = 0 then close t conn
      else if
        conn.pending = 0
        && now -. conn.last_activity > t.config.idle_timeout_s
      then begin
        Metrics.incr connections_idle_closed;
        close t conn
      end)
    t.conns

(* The select round.  [tick] runs the dispatch queue and says whether
   a backlog remains: with one, the next select polls instead of
   sleeping so queued work never waits on quiet sockets. *)
let run_loop t ~stop ~handle ~tick =
  let rec loop backlog =
    if stop () then ()
    else begin
      let fds =
        List.map fst t.listeners @ List.map (fun c -> c.fd) t.conns
      in
      let timeout = if backlog then 0.0 else 1.0 in
      match Unix.select fds [] [] timeout with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              match
                List.find_opt (fun (lfd, _) -> lfd == fd) t.listeners
              with
              | Some (lfd, plane) -> accept t lfd plane
              | None -> (
                  match List.find_opt (fun c -> c.fd == fd) t.conns with
                  | Some conn -> service t conn ~handle
                  | None -> ()))
            readable;
          let backlog = tick () in
          reap t;
          loop backlog
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop backlog
    end
  in
  loop false

(* Drain: listeners are already closed by the caller; answer every
   frame already buffered, run the dispatch queue dry, close all. *)
let drain t ~handle ~tick =
  List.iter (fun conn -> if not conn.dead then deliver_frames t conn ~handle)
    t.conns;
  while tick () do
    ()
  done;
  List.iter (fun conn -> close t conn) t.conns

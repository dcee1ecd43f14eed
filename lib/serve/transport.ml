(* Transport: fd lifecycle for the serve plane.

   Owns listening sockets, the accept path, per-connection buffers
   (reads land in one growable buffer that the decoder reads in place;
   answers the peer has not taken yet wait in another), the select
   round, idle- and stall-timeout reaping and the max-connection cap.
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

(* --- connections --- *)

type plane = Request_plane | Obs_plane

type conn = {
  fd : Unix.file_descr;
  plane : plane;
  peer : string;
  mutable rbuf : Bytes.t;  (** received bytes, decoded in place *)
  mutable rlen : int;  (** how many of [rbuf]'s bytes are valid *)
  mutable wbuf : Bytes.t;  (** unsent response bytes: [woff] to [wlen] *)
  mutable woff : int;
  mutable wlen : int;
  mutable wdone : int;  (** bytes of [wbuf] the peer has taken, ever *)
  wends : int Queue.t;
      (** where each answer in [wbuf] ends, counted like [wdone] *)
  mutable write_progress : float;
      (** monotonic: the last write that moved bytes, or the send that
          found nothing unsent *)
  mutable decoder : Protocol.decoder;
  mutable last_activity : float;  (** monotonic, for idle reaping *)
  mutable frames_in : int;  (** frames decoded on this connection *)
  mutable pending : int;  (** submitted jobs not yet answered *)
  mutable closing : bool;  (** close once [pending] drains to 0 *)
  mutable dead : bool;  (** takes no frames; late answers skip the write *)
  mutable released : bool;  (** fd closed *)
}

type config = {
  max_request_bytes : int;  (** one request line / HTTP body bound *)
  idle_timeout_s : float;
  max_connections : int;
}

(* A connection with more than this queued behind the answer being
   written is closed when its next answer is ready.  The cap judges the answers waiting their turn,
   never the one at the front: one answer may be any size, and a peer
   that reads it, however slowly, keeps its connection.  A peer that
   takes no bytes for [write_stall_timeout_s] is closed too. *)
let max_unsent_bytes = 16 * 1024 * 1024
let write_stall_timeout_s = 30.

(* Every connection's receive buffer starts here, and returns here once
   a large request has gone. *)
let initial_rbuf_bytes = 4096

(* Unix.read moves at most this much per call.  A buffer past this
   size is large, and is given back once emptied. *)
let read_chunk_bytes = 65536

let connection ~plane ~peer fd =
  {
    fd;
    plane;
    peer;
    rbuf = Bytes.create initial_rbuf_bytes;
    rlen = 0;
    wbuf = Bytes.empty;
    woff = 0;
    wlen = 0;
    wdone = 0;
    wends = Queue.create ();
    write_progress = Mae_obs.Clock.monotonic ();
    decoder = Protocol.initial;
    last_activity = Mae_obs.Clock.monotonic ();
    frames_in = 0;
    pending = 0;
    closing = false;
    dead = false;
    released = false;
  }

let unsent conn = conn.wlen - conn.woff

(* Unsent bytes behind the answer the peer is reading now. *)
let queued_behind conn =
  match Queue.peek_opt conn.wends with
  | None -> 0
  | Some front_end -> conn.wdone + unsent conn - front_end

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

let connections_stalled_closed =
  Metrics.counter "mae_serve_connections_stalled_closed_total"
    ~help:
      "Connections closed because their peer stopped reading: unsent \
       responses queued behind the one being written past the cap, or \
       no byte taken for 30 s"

let open_connections_gauge =
  Metrics.gauge "mae_serve_open_connections"
    ~help:"Request-plane connections currently open"

type t = { config : config; listeners : (Unix.file_descr * plane) list; mutable conns : conn list }

let create ~config ~listeners = { config; listeners; conns = [] }

let open_request_conns t =
  List.length (List.filter (fun c -> c.plane = Request_plane) t.conns)

let sync_gauge t =
  Metrics.set open_connections_gauge (Float.of_int (open_request_conns t))

(* Close the fd now, dropping any unsent bytes. *)
let abort t conn =
  conn.dead <- true;
  if not conn.released then begin
    conn.released <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c.fd != conn.fd) t.conns;
    if conn.plane = Request_plane then sync_gauge t
  end

(* Take no more frames; close the fd once the peer has read every
   answer already sent. *)
let close t conn =
  conn.dead <- true;
  if unsent conn = 0 then abort t conn

let stalled t conn =
  Metrics.incr connections_stalled_closed;
  abort t conn

(* One write of the unsent bytes, as far as the socket takes them
   without blocking.  EINTR and EAGAIN leave them for the next round. *)
let flush t conn =
  match Unix.write conn.fd conn.wbuf conn.woff (unsent conn) with
  | w ->
      if w > 0 then conn.write_progress <- Mae_obs.Clock.monotonic ();
      conn.woff <- conn.woff + w;
      conn.wdone <- conn.wdone + w;
      while
        (not (Queue.is_empty conn.wends)) && Queue.peek conn.wends <= conn.wdone
      do
        ignore (Queue.pop conn.wends)
      done;
      if unsent conn = 0 then begin
        conn.woff <- 0;
        conn.wlen <- 0;
        if Bytes.length conn.wbuf > read_chunk_bytes then conn.wbuf <- Bytes.empty;
        if conn.dead then abort t conn
      end
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error _ -> abort t conn

(* Queue [s] behind the unsent bytes, compacting or growing the buffer. *)
let append conn s off =
  let n = String.length s - off in
  if conn.wlen + n > Bytes.length conn.wbuf then begin
    let live = unsent conn in
    let dst =
      if live + n <= Bytes.length conn.wbuf then conn.wbuf
      else Bytes.create (max (live + n) (2 * Bytes.length conn.wbuf))
    in
    Bytes.blit conn.wbuf conn.woff dst 0 live;
    conn.wbuf <- dst;
    conn.woff <- 0;
    conn.wlen <- live
  end;
  Bytes.blit_string s off conn.wbuf conn.wlen n;
  conn.wlen <- conn.wlen + n

(* Write [s] now as far as the socket takes it, when nothing is queued
   ahead of it, and keep the rest for the select loop: a peer that does
   not read costs its own connection a buffer, never the daemon a
   wait.  A signal landing mid-write retries at the same offset. *)
let output t conn s =
  let n = String.length s in
  let rec direct off =
    if off >= n then Some n
    else
      match Unix.write_substring conn.fd s off (n - off) with
      | w -> direct (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> direct off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Some off
      | exception Unix.Unix_error _ -> None
  in
  if queued_behind conn > max_unsent_bytes then stalled t conn
  else
    let was_empty = unsent conn = 0 in
    match if was_empty then direct 0 else Some 0 with
    | None -> abort t conn
    | Some off ->
        if off < n then begin
          if was_empty then conn.write_progress <- Mae_obs.Clock.monotonic ();
          append conn s off;
          Queue.push (conn.wdone + unsent conn) conn.wends
        end

let send t conn framing response =
  if not conn.dead then
    Mae_obs.Span.with_ ~name:"serve.write" @@ fun () ->
    output t conn (Protocol.encode framing response);
    if Protocol.will_close framing response then close t conn

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
           stop exactly at EAGAIN, and a write never waits on a peer *)
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        t.conns <- connection ~plane ~peer fd :: t.conns;
        if plane = Request_plane then begin
          Metrics.incr connections_total;
          sync_gauge t
        end
      end
  | exception Unix.Unix_error _ -> ()

(* Decode every complete frame in the connection buffer, in order, and
   hand each to [handle] with the seconds its decode took.  The decoder
   reads the buffer in place and copies out what a frame keeps, so after
   the loop only the partial frame left over moves, to the front.
   [handle] may answer inline (closing the connection on a framing
   error) or queue the frame; the loop stops the moment the connection
   dies.  A decode is timed only when something reads the time: the
   [serve.decode] span with telemetry on, the access log's [decode_s]
   when the log is on. *)
let deliver_frames t conn ~handle =
  let data = Bytes.unsafe_to_string conn.rbuf in
  let len = conn.rlen in
  let traced = Mae_obs.enabled () in
  let timed = traced || Mae_obs.Log.enabled Mae_obs.Log.Info in
  let rec go pos =
    if conn.dead || pos >= len then pos
    else begin
      let t0 = if timed then Mae_obs.Clock.monotonic () else 0. in
      match
        Protocol.decode ~pos ~len ~max_bytes:t.config.max_request_bytes
          conn.decoder data
      with
      | Protocol.Await -> pos
      | Protocol.Skip (d, k) ->
          conn.decoder <- d;
          go (pos + k)
      | Protocol.Frame (frame, d, k) ->
          let decode_s =
            if traced then Mae_obs.Span.close_since ~name:"serve.decode" t0
            else if timed then Mae_obs.Clock.monotonic () -. t0
            else 0.
          in
          conn.decoder <- d;
          conn.frames_in <- conn.frames_in + 1;
          if conn.frames_in = 2 && conn.plane = Request_plane then
            Metrics.incr connections_reused;
          handle conn ~decode_s frame;
          go (pos + k)
    end
  in
  let consumed = go 0 in
  if consumed > 0 && not conn.dead then begin
    let rest = len - consumed in
    if Bytes.length conn.rbuf > read_chunk_bytes && rest < initial_rbuf_bytes
    then begin
      (* a large request has gone: give its buffer back *)
      let small = Bytes.create initial_rbuf_bytes in
      Bytes.blit conn.rbuf consumed small 0 rest;
      conn.rbuf <- small
    end
    else Bytes.blit conn.rbuf consumed conn.rbuf 0 rest;
    conn.rlen <- rest
  end

let service t conn ~handle =
  (* Read straight into the connection buffer, on short reads too: the
     socket is non-blocking, so keep reading until EAGAIN (a partial
     chunk is taken as "drained" too -- anything left wakes the next
     select) and retry EINTR at the same spot rather than dropping the
     wakeup.  Reading stops once the buffer holds enough for the
     decoder to take a step whatever the bytes are; the rest stays in
     the socket for the next round. *)
  let limit =
    Protocol.max_pending_bytes ~max_bytes:t.config.max_request_bytes
  in
  let rec fill total =
    if conn.rlen >= limit then `Data total
    else begin
      if conn.rlen = Bytes.length conn.rbuf then begin
        let grown =
          Bytes.create (min limit (max (2 * conn.rlen) initial_rbuf_bytes))
        in
        Bytes.blit conn.rbuf 0 grown 0 conn.rlen;
        conn.rbuf <- grown
      end;
      let room =
        min read_chunk_bytes (Bytes.length conn.rbuf - conn.rlen)
      in
      match Unix.read conn.fd conn.rbuf conn.rlen room with
      | 0 -> `Eof
      | n ->
          conn.rlen <- conn.rlen + n;
          if n = room then fill (total + n) else `Data (total + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill total
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if total = 0 then `Nothing else `Data total
      | exception Unix.Unix_error _ -> `Err
    end
  in
  match fill 0 with
  | `Nothing -> ()
  | `Err -> abort t conn
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

(* Close the connections whose peers stopped reading, whose EOF work
   is answered, or that sat idle past the timeout. *)
let reap t =
  let now = Mae_obs.Clock.monotonic () in
  List.iter
    (fun conn ->
      if unsent conn > 0 then begin
        if now -. conn.write_progress > write_stall_timeout_s then
          stalled t conn
      end
      else if conn.closing && conn.pending = 0 then close t conn
      else if
        conn.pending = 0
        && now -. conn.last_activity > t.config.idle_timeout_s
      then begin
        Metrics.incr connections_idle_closed;
        close t conn
      end)
    t.conns

let find_conn t fd = List.find_opt (fun c -> c.fd == fd) t.conns

(* One select over every listener and readable connection, and every
   connection with unsent bytes: flush the writable, then accept and
   read. *)
let select_round t ~handle ~timeout =
  let readers =
    List.map fst t.listeners
    @ List.filter_map
        (fun c -> if c.dead || c.closing then None else Some c.fd)
        t.conns
  in
  let writers =
    List.filter_map (fun c -> if unsent c > 0 then Some c.fd else None) t.conns
  in
  match Unix.select readers writers [] timeout with
  | readable, writable, _ ->
      List.iter
        (fun fd -> Option.iter (fun c -> flush t c) (find_conn t fd))
        writable;
      List.iter
        (fun fd ->
          match List.find_opt (fun (lfd, _) -> lfd == fd) t.listeners with
          | Some (lfd, plane) -> accept t lfd plane
          | None -> Option.iter (fun c -> service t c ~handle) (find_conn t fd))
        readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* The select round.  [tick] runs the dispatch queue and says whether
   a backlog remains: with one, the next select polls instead of
   sleeping so queued work never waits on quiet sockets. *)
let run_loop t ~stop ~handle ~tick =
  let rec loop backlog =
    if not (stop ()) then begin
      select_round t ~handle ~timeout:(if backlog then 0.0 else 1.0);
      let backlog = tick () in
      reap t;
      loop backlog
    end
  in
  loop false

(* Drain: listeners are already closed by the caller; answer every
   frame already buffered, run the dispatch queue dry, then close each
   connection once its peer has read its answers (or has stalled). *)
let drain t ~handle ~tick =
  List.iter (fun conn -> if not conn.dead then deliver_frames t conn ~handle)
    t.conns;
  while tick () do
    ()
  done;
  List.iter (fun conn -> close t conn) t.conns;
  let rec flush_rest () =
    if t.conns <> [] then begin
      let writers = List.map (fun c -> c.fd) t.conns in
      (match Unix.select [] writers [] 1.0 with
      | _, writable, _ ->
          List.iter
            (fun fd -> Option.iter (fun c -> flush t c) (find_conn t fd))
            writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      reap t;
      flush_rest ()
    end
  in
  flush_rest ()

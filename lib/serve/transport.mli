(** Fd lifecycle for the serve plane: listeners, the accept path,
    per-connection receive and send buffers, the select round, idle and
    stall reaping and the max-connection cap.

    Bytes in, {!Protocol.frame}s out (through [handle]); responses go
    back through {!send}.  Request semantics live in {!Protocol} and
    {!Dispatch}. *)

type addr = Tcp of { host : string; port : int } | Unix_sock of string

val pp_addr : Format.formatter -> addr -> unit
val parse_addr : string -> (addr, string) result

val listen_on : addr -> (Unix.file_descr * addr, string) result
(** Bind + listen; the returned address has the kernel-assigned port
    when binding TCP port 0. *)

val unlink_unix_addr : addr -> unit

type plane = Request_plane | Obs_plane

type conn = {
  fd : Unix.file_descr;
  plane : plane;
  peer : string;
  mutable rbuf : Bytes.t;
      (** received bytes; {!Protocol.decode} reads them in place *)
  mutable rlen : int;  (** how many of [rbuf]'s bytes are valid *)
  mutable wbuf : Bytes.t;
      (** answers the peer has not taken yet: bytes [woff] to [wlen] *)
  mutable woff : int;
  mutable wlen : int;
  mutable wdone : int;  (** bytes of [wbuf] the peer has taken, ever *)
  wends : int Queue.t;
      (** where each answer in [wbuf] ends, counted like [wdone] *)
  mutable write_progress : float;
  mutable decoder : Protocol.decoder;
  mutable last_activity : float;
  mutable frames_in : int;
  mutable pending : int;
      (** submitted but unanswered dispatch jobs; {!Dispatch} maintains
          it so EOF/idle close waits for in-flight answers *)
  mutable closing : bool;
  mutable dead : bool;  (** takes no frames; late answers skip the write *)
  mutable released : bool;  (** fd closed *)
}

val connection : plane:plane -> peer:string -> Unix.file_descr -> conn
(** A fresh connection on an accepted (non-blocking) fd. *)

val unsent : conn -> int
(** Answer bytes the peer has not taken yet. *)

type config = {
  max_request_bytes : int;
  idle_timeout_s : float;
  max_connections : int;
}

val max_unsent_bytes : int
(** 16 MiB: a connection with more than this of unsent answers queued
    behind the one being written closes, counted in
    [mae_serve_connections_stalled_closed_total], as does one whose
    peer takes no bytes for 30 s.  The answer at the front, however
    large, never counts. *)

type t

val create : config:config -> listeners:(Unix.file_descr * plane) list -> t
val open_request_conns : t -> int

val send : t -> conn -> Protocol.framing -> Protocol.response -> unit
(** Encode and write, inside a [serve.write] span: as much as the
    socket takes now, the rest kept for the select loop to write when
    the peer reads.  Nothing ever waits on a peer.  Closes the
    connection (after its answers are written) when
    {!Protocol.will_close} says so, and at once on a write error or
    when more than [max_unsent_bytes] wait behind the answer being
    written.  A no-op on a dead connection. *)

val flush : t -> conn -> unit
(** Write as much of the connection's unsent bytes as the socket takes
    without blocking; the select loop calls it when the socket is
    writable.  A dead connection closes once they are all written. *)

val close : t -> conn -> unit
(** Take no more frames from the connection; close its fd once the
    peer has read every answer already sent. *)

val service :
  t -> conn -> handle:(conn -> decode_s:float -> Protocol.frame -> unit) -> unit
(** One readiness event: read into the connection buffer until the
    socket would block or the buffer holds
    {!Protocol.max_pending_bytes} (the rest waits for the next round),
    then decode every complete frame in place and [handle] each, with
    the seconds its decode took ([0.] when neither telemetry nor the
    access log is on). *)

val run_loop :
  t ->
  stop:(unit -> bool) ->
  handle:(conn -> decode_s:float -> Protocol.frame -> unit) ->
  tick:(unit -> bool) ->
  unit
(** The select loop: write unsent answers to peers ready for them,
    accept, read, decode, [handle] each frame, then [tick] the dispatch
    queue.  While [tick] reports a backlog the next round polls instead
    of sleeping. *)

val drain :
  t ->
  handle:(conn -> decode_s:float -> Protocol.frame -> unit) ->
  tick:(unit -> bool) ->
  unit
(** Shutdown path (listeners already closed): deliver every buffered
    complete frame, run [tick] until the queue is dry, then close each
    connection once its answers are written (or its peer stalls). *)

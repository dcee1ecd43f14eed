(** The pure request/response codec of the serve plane.

    Line-delimited JSON and HTTP/1.0/1.1 both decode into one typed
    {!request} and encode from one typed {!response}.  The decoder is
    an incremental step function over a connection buffer -- no
    sockets, no clocks -- so the whole codec is testable with
    strings. *)

module Json = Mae_obs.Json

type estimate = {
  id : Json.t;  (** the client's "id" field, echoed back; Null if absent *)
  hdl : string;
  methods : string list option;
}

type http_version = V10 | V11

type framing =
  | Line  (** newline-delimited JSON: responses are one JSON line *)
  | Http of { version : http_version; keep_alive : bool }
      (** Content-Length framed; the response echoes [version], and
          [keep_alive] says whether the connection survives it *)

type request =
  | Estimate of estimate
  | Scrape of { path : string }
  | Invalid of { id : Json.t; error : string }
      (** well-framed, bad content: answered and counted, connection
          kept (the keep-alive contract) *)
  | Malformed of { status : int; error : string }
      (** HTTP framing error: answered as text, connection closes *)
  | Too_large of { limit : int }
      (** over the size limit: answered; a line connection
          resynchronizes at the next newline *)
  | Not_allowed of { meth : string }

type frame = {
  request : request;
  framing : framing;
  bytes : int;  (** size of the request line or body, for the access log *)
}

type decoder = Ready | Discard_line

val initial : decoder

type step =
  | Frame of frame * decoder * int
      (** one decoded frame, the successor state, bytes consumed *)
  | Skip of decoder * int  (** consumed bytes carry no frame (blank
          lines, discarded oversize tail) *)
  | Await  (** need more bytes *)

val decode :
  ?pos:int -> ?len:int -> max_bytes:int -> decoder -> string -> step
(** [decode ~pos ~len ~max_bytes state buf] inspects the bytes of [buf]
    from [pos] (default 0) up to [len] (default [String.length buf]) as
    it would the copy [String.sub buf pos (len - pos)], so byte counts
    in the result are from [pos].  It reads them in place, and nothing
    in a decoded frame shares memory with [buf]: a transport may pass
    its own mutable buffer through [Bytes.unsafe_to_string] and reuse
    it once [decode] returns.  The dialect is chosen per frame: a
    buffer starting with an HTTP method token decodes as HTTP, anything
    else as a JSON line.  [max_bytes] bounds a request line or an HTTP
    body; an HTTP head is capped at 64 KiB.  Both caps judge the frame,
    not the bytes that have arrived, so a stream yields the same frames
    however it is split across reads. *)

val max_pending_bytes : max_bytes:int -> int
(** A buffer holding at least this many bytes from [pos] never decodes
    to [Await]: the longest frame still waiting for bytes is a 64 KiB
    HTTP head, its terminator and a body of [max_bytes].  So a
    transport that stops reading there loses nothing. *)

(** {1 Responses} *)

type body = Json_body of Json.t | Text of string

type response = {
  status : int;
  content_type : string;
  body : body;
  retry_after_s : int option;
}

val json_response : ?status:int -> ?retry_after_s:int -> Json.t -> response
val text_response : ?status:int -> ?content_type:string -> string -> response

val body_string : response -> string
(** The payload as written on a line connection (JSON bodies get a
    trailing newline). *)

val status_text : int -> string

val will_close : framing -> response -> bool
(** Whether the connection must close after this response: always for
    non-keep-alive HTTP, and for responses that poison framing (413). *)

val encode : framing -> response -> string
(** Serialize for the wire: the bare (newline-terminated) body on a
    line connection; a full status line + headers + body under HTTP,
    echoing the request's version and advertising keep-alive or
    close per {!will_close}. *)

(* Protocol: the pure request/response codec of the serve plane.

   Both wire dialects decode into the same typed [request]:

   - line-delimited JSON (the original request plane): one request per
     newline-terminated line;
   - HTTP/1.1 with Content-Length framing and keep-alive (plus an
     HTTP/1.0 close-by-default fallback): [GET] paths are scrapes,
     [POST /estimate] bodies are estimation requests.

   [decode] is an incremental step function over a connection buffer:
   feed it whatever bytes arrived, get back at most one frame plus the
   number of bytes it consumed.  No sockets, no clocks, no globals --
   the whole codec is unit-testable with strings, which is the point
   of the layer. *)

module Json = Mae_obs.Json

type estimate = {
  id : Json.t;  (** the client's "id" field, echoed back; Null if absent *)
  hdl : string;
  methods : string list option;  (** validated against the registry *)
}

type http_version = V10 | V11

type framing =
  | Line
  | Http of { version : http_version; keep_alive : bool }

type request =
  | Estimate of estimate
  | Scrape of { path : string }  (** GET: the observability documents *)
  | Invalid of { id : Json.t; error : string }
      (** a well-framed request with bad content (malformed JSON, bad
          "methods", missing "hdl"): answered, counted, and -- the
          keep-alive contract -- the connection survives it *)
  | Malformed of { status : int; error : string }
      (** an HTTP framing error (bad request line, bad Content-Length):
          answered as text and the connection closes, because the codec
          cannot trust where the next request starts *)
  | Too_large of { limit : int }
      (** a line or body over the limit: answered, the oversized input
          is discarded, and the connection resynchronizes at the next
          newline *)
  | Not_allowed of { meth : string }  (** any HTTP method we don't serve *)

type frame = { request : request; framing : framing; bytes : int }

(* After an oversized line without a newline in sight the decoder
   discards input until the newline that ends it, then resumes. *)
type decoder = Ready | Discard_line

let initial = Ready

type step =
  | Frame of frame * decoder * int
  | Skip of decoder * int
  | Await

(* --- the request body: one JSON document --- *)

(* The optional "methods" request field: a comma-separated string or an
   array of names, validated against the registry before estimation so a
   typo answers with a request error listing what is registered. *)
let parse_methods doc =
  match Json.member "methods" doc with
  | None -> Ok None
  | Some (Json.String s) -> begin
      match Mae.Methodology.selection_of_string s with
      | Ok names -> Ok (Some names)
      | Error e -> Error e
    end
  | Some (Json.Array items) -> begin
      let rec strings acc = function
        | [] -> Some (List.rev acc)
        | Json.String s :: rest -> strings (s :: acc) rest
        | _ -> None
      in
      match strings [] items with
      | None -> Error "\"methods\" entries must be strings"
      | Some [] -> Error "empty method set"
      | Some names -> begin
          match Mae.Methodology.selection_of_string (String.concat "," names) with
          | Ok names -> Ok (Some names)
          | Error e -> Error e
        end
    end
  | Some _ -> Error "\"methods\" must be a string or an array of strings"

let request_of_body body =
  match Json.parse body with
  | Error e -> Invalid { id = Json.Null; error = "bad request JSON: " ^ e }
  | Ok doc -> begin
      let id = Option.value (Json.member "id" doc) ~default:Json.Null in
      match parse_methods doc with
      | Error e -> Invalid { id; error = "bad \"methods\": " ^ e }
      | Ok methods -> begin
          match Json.member "hdl" doc with
          | Some (Json.String text) ->
              Estimate { id; hdl = text; methods }
          | Some _ -> Invalid { id; error = "\"hdl\" must be a string" }
          | None -> Invalid { id; error = "request needs an \"hdl\" field" }
        end
    end

(* --- dialect detection --- *)

let http_methods =
  [ "GET"; "POST"; "HEAD"; "PUT"; "DELETE"; "OPTIONS"; "PATCH" ]

(* Does the buffer, from [pos], start an HTTP request?  [`Maybe] while
   the rest is still a proper prefix of some "METHOD " token -- the
   caller waits for more bytes before committing to a dialect.  A
   line-JSON request can never be mistaken: it starts with '{' (or
   anything that is not an HTTP method name). *)
let looks_http buf pos =
  let n = String.length buf - pos in
  List.fold_left
    (fun acc m ->
      let lm = String.length m in
      if n > lm && String.sub buf pos (lm + 1) = m ^ " " then `Yes
      else if n <= lm && acc = `No && String.sub buf pos n = String.sub m 0 n
      then `Maybe
      else acc)
    `No http_methods

(* --- line dialect --- *)

let strip_cr line =
  if String.length line > 0 && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

let decode_line ~max_bytes buf pos =
  let n = String.length buf - pos in
  match String.index_from_opt buf pos '\n' with
  | Some nl ->
      let line = strip_cr (String.sub buf pos (nl - pos)) in
      let len = String.length line and consumed = nl + 1 - pos in
      if len > max_bytes then
        Frame
          ( { request = Too_large { limit = max_bytes };
              framing = Line;
              bytes = len },
            Ready, consumed )
      else if len = 0 then Skip (Ready, consumed)
      else
        Frame
          ({ request = request_of_body line; framing = Line; bytes = len },
           Ready, consumed)
  | None ->
      (* the line is at least [n - 1] bytes long: its last byte may be
         the '\r' that [strip_cr] drops *)
      if n - 1 > max_bytes then
        (* no newline yet and already over budget: answer now and
           discard until the line finally ends *)
        Frame
          ( { request = Too_large { limit = max_bytes };
              framing = Line;
              bytes = n },
            Discard_line, n )
      else Await

(* --- HTTP dialect --- *)

(* The request head may not exceed this, like the old obs plane's
   64 KiB buffer bound.  Bodies are bounded by [max_bytes]. *)
let max_head_bytes = 65536

(* Earliest of "\r\n\r\n" or a bare "\n\n" (tolerated like the old
   plane did) from [pos]; returns (head_length, body_offset), both from
   [pos].  One pass over the newlines, comparing bytes in place: a
   "\r\n\r\n" starting at [i - 1] starts before a "\n\n" at [i], and
   the two cannot share a newline, so the first hit is the earliest
   terminator and the body is never scanned. *)
let head_terminator buf pos =
  let n = String.length buf in
  let rec from i =
    match String.index_from_opt buf i '\n' with
    | None -> None
    | Some i when i + 1 >= n -> None
    | Some i ->
        if buf.[i + 1] = '\n' then Some (i - pos, i + 2 - pos)
        else if i > pos && buf.[i - 1] = '\r' && buf.[i + 1] = '\r'
                && i + 2 < n && buf.[i + 2] = '\n'
        then Some (i - 1 - pos, i + 3 - pos)
        else from (i + 1)
  in
  from pos

type head = {
  meth : string;
  target : string;
  version : http_version option;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
}

let parse_head text =
  let lines =
    String.split_on_char '\n' text |> List.map strip_cr
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "bad request line"
  | request_line :: header_lines ->
      let tokens =
        String.split_on_char ' ' request_line
        |> List.filter (fun t -> t <> "")
      in
      (match tokens with
      | [ meth; target; v ] ->
          let version =
            match v with
            | "HTTP/1.1" -> Some V11
            | "HTTP/1.0" -> Some V10
            | _ -> None
          in
          let headers =
            List.filter_map
              (fun l ->
                match String.index_opt l ':' with
                | None -> None
                | Some i ->
                    Some
                      ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                        String.trim
                          (String.sub l (i + 1) (String.length l - i - 1)) ))
              header_lines
          in
          Ok { meth; target; version; headers }
      | _ -> Error "bad request line")

let wants_keep_alive version headers =
  let conn =
    Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
  in
  match version with
  | V11 -> conn <> Some "close"
  | V10 -> conn = Some "keep-alive"

let strip_query target =
  match String.index_opt target '?' with
  | Some i -> String.sub target 0 i
  | None -> target

let decode_http ~max_bytes buf pos =
  let n = String.length buf - pos in
  (* The head cap holds however the bytes arrived: a buffer without a
     terminator holds a head of at least [n - 3] bytes (its last three
     may open a "\r\n\r\n"), a terminated one a head of [head_len]. *)
  let head_too_large () =
    Frame
      ( { request = Too_large { limit = max_head_bytes };
          framing = Http { version = V10; keep_alive = false };
          bytes = n },
        Ready, n )
  in
  match head_terminator buf pos with
  | None -> if n - 3 > max_head_bytes then head_too_large () else Await
  | Some (head_len, _) when head_len > max_head_bytes -> head_too_large ()
  | Some (head_len, body_off) -> begin
      let closing err status =
        (* a framing error poisons the rest of the buffer: consume it
           all, answer, close *)
        Frame
          ( { request = Malformed { status; error = err };
              framing = Http { version = V10; keep_alive = false };
              bytes = n },
            Ready, n )
      in
      match parse_head (String.sub buf pos head_len) with
      | Error e -> closing e 400
      | Ok h -> begin
          let version = Option.value h.version ~default:V10 in
          let keep_alive =
            match h.version with
            | None -> false
            | Some v -> wants_keep_alive v h.headers
          in
          let framing = Http { version; keep_alive } in
          match
            match List.assoc_opt "content-length" h.headers with
            | None -> Ok 0
            | Some s -> (
                match int_of_string_opt (String.trim s) with
                | Some l when l >= 0 -> Ok l
                | _ -> Error "bad Content-Length")
          with
          | Error e -> closing e 400
          | Ok body_len ->
              if body_len > max_bytes then
                Frame
                  ( { request = Too_large { limit = max_bytes };
                      framing = Http { version; keep_alive = false };
                      bytes = n },
                    Ready, n )
              else if n - body_off < body_len then Await
              else begin
                let body = String.sub buf (pos + body_off) body_len in
                let consumed = body_off + body_len in
                let path = strip_query h.target in
                let request =
                  match h.meth with
                  | "GET" -> Scrape { path }
                  | "POST" ->
                      if path = "/estimate" || path = "/" then
                        if body_len = 0 then
                          Invalid
                            { id = Json.Null;
                              error =
                                "POST needs a JSON request body (with \
                                 Content-Length)" }
                        else request_of_body (String.trim body)
                      else
                        Malformed
                          { status = 404;
                            error =
                              Printf.sprintf
                                "POST %s is not served; try POST /estimate"
                                path }
                  | m -> Not_allowed { meth = m }
                in
                Frame ({ request; framing; bytes = body_len }, Ready, consumed)
              end
        end
    end

let decode ?(pos = 0) ~max_bytes state buf =
  if pos >= String.length buf then Await
  else
    match state with
    | Discard_line -> begin
        match String.index_from_opt buf pos '\n' with
        | Some nl -> Skip (Ready, nl + 1 - pos)
        | None -> Skip (Discard_line, String.length buf - pos)
      end
    | Ready -> begin
        match looks_http buf pos with
        | `Maybe -> Await
        | `Yes -> decode_http ~max_bytes buf pos
        | `No -> decode_line ~max_bytes buf pos
      end

(* --- responses --- *)

type body = Json_body of Json.t | Text of string

type response = {
  status : int;
  content_type : string;
  body : body;
  retry_after_s : int option;
      (** the admission-control hint: sent as Retry-After on HTTP and
          as a "retry_after_s" field callers place in the JSON body *)
}

let json_response ?(status = 200) ?retry_after_s doc =
  { status; content_type = "application/json"; body = Json_body doc;
    retry_after_s }

let text_response ?(status = 200) ?(content_type = "text/plain") text =
  { status; content_type; body = Text text; retry_after_s = None }

let status_text = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 413 -> "413 Content Too Large"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | s -> Printf.sprintf "%d Status" s

let body_string r =
  match r.body with Json_body doc -> Json.encode doc ^ "\n" | Text s -> s

(* A response that poisons framing closes the connection even under
   keep-alive: after Too_large the client's next bytes may be the tail
   of the oversized body. *)
let will_close framing r =
  match framing with
  | Line -> false
  | Http { keep_alive; _ } -> (not keep_alive) || r.status = 413

let version_string = function V10 -> "HTTP/1.0" | V11 -> "HTTP/1.1"

let encode framing r =
  match framing with
  | Line -> body_string r
  | Http { version; keep_alive = _ } as f ->
      let body = body_string r in
      Printf.sprintf
        "%s %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: \
         %s\r\n\r\n%s"
        (version_string version) (status_text r.status) r.content_type
        (String.length body)
        (match r.retry_after_s with
        | None -> ""
        | Some s -> Printf.sprintf "Retry-After: %d\r\n" s)
        (if will_close f r then "close" else "keep-alive")
        body

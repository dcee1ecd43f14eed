(* Protocol codec tests: the pure request/response layer of the serve
   plane, exercised entirely with strings -- no sockets, no clocks.

   Covers both wire dialects (line JSON and HTTP/1.1), split-read
   invariance of the incremental decoder, oversize resynchronization
   through [Discard_line], keep-alive negotiation, adversarial headers,
   and the response encoder (Content-Length framing, Connection and
   Retry-After headers, version echo). *)

module P = Mae_serve.Protocol
module Json = Mae_obs.Json
module S = Mae_test_support.Support

let () = Mae_baselines.Methods.ensure_registered ()

(* Small budget so oversize cases stay cheap to build. *)
let max_bytes = 256

let decode ?(max_bytes = max_bytes) st buf = P.decode ~max_bytes st buf

let frame_exn what buf =
  match decode P.initial buf with
  | P.Frame (f, dec, consumed) -> (f, dec, consumed)
  | P.Skip _ -> Alcotest.failf "%s: expected a frame, got Skip" what
  | P.Await -> Alcotest.failf "%s: expected a frame, got Await" what

let request_exn what buf =
  let f, _, _ = frame_exn what buf in
  f.P.request

let estimate_exn what buf =
  match request_exn what buf with
  | P.Estimate e -> e
  | _ -> Alcotest.failf "%s: expected Estimate" what

let invalid_exn what buf =
  match request_exn what buf with
  | P.Invalid { id; error } -> (id, error)
  | _ -> Alcotest.failf "%s: expected Invalid" what

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
  in
  at 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

let obj fields = Json.encode (Json.Object fields)

let est_line ?(id = Json.Number 7.) hdl =
  obj [ ("id", id); ("hdl", Json.String hdl) ]

(* --- line dialect --- *)

let line_basics () =
  let line = est_line "circuit c; end c" in
  let f, dec, consumed = frame_exn "lf line" (line ^ "\n") in
  Alcotest.(check bool) "decoder back to Ready" true (dec = P.Ready);
  Alcotest.(check int) "consumes through newline" (String.length line + 1)
    consumed;
  Alcotest.(check bool) "line framing" true (f.P.framing = P.Line);
  Alcotest.(check int) "frame bytes = line length" (String.length line)
    f.P.bytes;
  (match f.P.request with
  | P.Estimate { id; hdl; methods } ->
      Alcotest.(check bool) "id echoed" true (id = Json.Number 7.);
      Alcotest.(check string) "hdl text" "circuit c; end c" hdl;
      Alcotest.(check bool) "no methods" true (methods = None)
  | _ -> Alcotest.fail "expected Estimate");
  (* CRLF line endings decode to the same request. *)
  let f2, _, consumed2 = frame_exn "crlf line" (line ^ "\r\n") in
  Alcotest.(check bool) "CRLF stripped" true (f2.P.request = f.P.request);
  Alcotest.(check int) "CRLF consumed" (String.length line + 2) consumed2;
  (* Only the first line is consumed when more bytes follow. *)
  let _, _, consumed3 = frame_exn "pipelined" (line ^ "\n" ^ line ^ "\n") in
  Alcotest.(check int) "stops at first newline" (String.length line + 1)
    consumed3

let line_blank_and_await () =
  (match decode P.initial "\n" with
  | P.Skip (P.Ready, 1) -> ()
  | _ -> Alcotest.fail "blank line should Skip 1 byte");
  (match decode P.initial "\r\n" with
  | P.Skip (P.Ready, 2) -> ()
  | _ -> Alcotest.fail "blank CRLF line should Skip 2 bytes");
  (match decode P.initial "" with
  | P.Await -> ()
  | _ -> Alcotest.fail "empty buffer should Await");
  match decode P.initial "{\"id\": 1" with
  | P.Await -> ()
  | _ -> Alcotest.fail "partial line should Await"

let line_request_errors () =
  let _, err = invalid_exn "bad json" "{nope\n" in
  Alcotest.(check bool) "bad JSON tagged" true
    (has_prefix ~prefix:"bad request JSON:" err);
  let id, err = invalid_exn "missing hdl" (obj [ ("id", Json.Number 3.) ] ^ "\n") in
  Alcotest.(check bool) "id still echoed" true (id = Json.Number 3.);
  Alcotest.(check string) "missing hdl message" "request needs an \"hdl\" field"
    err;
  let _, err =
    invalid_exn "hdl type" (obj [ ("hdl", Json.Number 1.) ] ^ "\n")
  in
  Alcotest.(check string) "hdl type message" "\"hdl\" must be a string" err

let line_methods () =
  let with_methods m =
    obj [ ("hdl", Json.String "x"); ("methods", m) ] ^ "\n"
  in
  let e =
    estimate_exn "methods string" (with_methods (Json.String "gatearray, naive"))
  in
  Alcotest.(check (option (list string))) "string selection"
    (Some [ "gatearray"; "naive" ]) e.P.methods;
  let e =
    estimate_exn "methods array"
      (with_methods
         (Json.Array [ Json.String "gatearray"; Json.String "naive" ]))
  in
  Alcotest.(check (option (list string))) "array selection"
    (Some [ "gatearray"; "naive" ]) e.P.methods;
  let bad what m expect_sub =
    let _, err = invalid_exn what (with_methods m) in
    Alcotest.(check bool) "tagged" true (has_prefix ~prefix:"bad \"methods\":" err);
    check_contains what err expect_sub
  in
  bad "unknown name" (Json.String "gatearray,zzz") "zzz";
  bad "non-string entry" (Json.Array [ Json.Number 1. ]) "must be strings";
  bad "empty array" (Json.Array []) "empty method set";
  bad "wrong type" (Json.Bool true) "must be a string or an array"

let line_oversize_resync () =
  (* An oversized line that already has its newline: answered and the
     decoder stays Ready. *)
  let big = String.make (max_bytes + 1) 'x' in
  let f, dec, consumed = frame_exn "oversize with newline" (big ^ "\n") in
  Alcotest.(check bool) "Too_large" true
    (f.P.request = P.Too_large { limit = max_bytes });
  Alcotest.(check bool) "stays Ready" true (dec = P.Ready);
  Alcotest.(check int) "consumed through newline" (max_bytes + 2) consumed;
  (* Over budget with no newline in sight: answer now, then discard
     until the line finally ends. *)
  let huge = String.make (max_bytes + 10) 'y' in
  let f, dec, consumed = frame_exn "oversize unterminated" huge in
  Alcotest.(check bool) "Too_large (unterminated)" true
    (f.P.request = P.Too_large { limit = max_bytes });
  Alcotest.(check bool) "enters Discard_line" true (dec = P.Discard_line);
  Alcotest.(check int) "consumed all" (String.length huge) consumed;
  (match decode P.Discard_line "still-the-old-line" with
  | P.Skip (P.Discard_line, 18) -> ()
  | _ -> Alcotest.fail "discard should swallow newline-less bytes");
  (match decode P.Discard_line "zz\n" with
  | P.Skip (P.Ready, 3) -> ()
  | _ -> Alcotest.fail "discard should end at the newline");
  (* ...and the next request decodes normally. *)
  let e = estimate_exn "resynced" (est_line "after" ^ "\n") in
  Alcotest.(check string) "post-resync hdl" "after" e.P.hdl

(* Offsets into [String.concat "" frames]: any, or one where a frame
   starts or ends. *)
let offset_gen frames =
  let ends =
    List.fold_left (fun acc f -> (List.hd acc + String.length f) :: acc) [ 0 ] frames
  in
  QCheck2.Gen.(oneof [ int_bound (List.hd ends); oneofl ends ])

(* Decoding [s] from offset [k] steps through the same frames, in the
   same states, as decoding the copy [String.sub s k], in both decoder
   states. *)
let same_from_offset s k =
  let rest = String.sub s k (String.length s - k) in
  let rec steps decode state at acc =
    match decode state at with
    | P.Await -> List.rev acc
    | (P.Skip (d, n) | P.Frame (_, d, n)) as step ->
        steps decode d (at + n) (step :: acc)
  in
  let in_place state at = P.decode ~pos:at ~max_bytes state s
  and copied state at =
    P.decode ~max_bytes state (String.sub rest (at - k) (String.length s - at))
  in
  List.for_all
    (fun state -> steps in_place state k [] = steps copied state k [])
    [ P.initial; P.Discard_line ]

(* Split-read invariance: any prefix of a request line Awaits, and the
   frame decoded from the full buffer is independent of how the bytes
   arrived, or of the offset it is decoded from. *)
let split_read_prop =
  let line = est_line ~id:(Json.Number 42.) "circuit split; end split" in
  let frames = [ line ^ "\n"; est_line "circuit other; end other" ^ "\r\n" ] in
  let stream = String.concat "" frames in
  let gen =
    QCheck2.Gen.(pair (int_bound (String.length line - 1)) (offset_gen frames))
  in
  S.qtest ~count:500 "line split-read invariance" gen (fun (cut, k) ->
      if not (same_from_offset stream k) then
        QCheck2.Test.fail_reportf "offset %d decodes differently" k;
      let prefix = String.sub line 0 cut in
      (match decode P.initial prefix with
      | P.Await -> ()
      | _ -> QCheck2.Test.fail_report "prefix must Await");
      match decode P.initial (line ^ "\n") with
      | P.Frame (f, P.Ready, consumed) ->
          consumed = String.length line + 1
          && f.P.request
             = P.Estimate
                 { id = Json.Number 42.; hdl = "circuit split; end split";
                   methods = None }
      | _ -> false)

(* --- HTTP dialect --- *)

let http_get () =
  let req = "GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n" in
  let f, dec, consumed = frame_exn "GET" req in
  Alcotest.(check bool) "scrape" true (f.P.request = P.Scrape { path = "/metrics" });
  Alcotest.(check bool) "1.1 keep-alive default" true
    (f.P.framing = P.Http { version = P.V11; keep_alive = true });
  Alcotest.(check bool) "Ready" true (dec = P.Ready);
  Alcotest.(check int) "whole head consumed" (String.length req) consumed;
  (* Query strings are stripped from the scrape path. *)
  let f, _, _ = frame_exn "query" "GET /healthz?verbose=1 HTTP/1.1\r\n\r\n" in
  Alcotest.(check bool) "query stripped" true
    (f.P.request = P.Scrape { path = "/healthz" });
  (* A bare \n\n head terminator is tolerated. *)
  let f, _, _ = frame_exn "lf head" "GET /slo HTTP/1.1\n\n" in
  Alcotest.(check bool) "bare LF terminator" true
    (f.P.request = P.Scrape { path = "/slo" })

let http_keep_alive () =
  let framing_of req =
    let f, _, _ = frame_exn "keep-alive case" req in
    f.P.framing
  in
  let check_ka what req version keep_alive =
    Alcotest.(check bool) what true
      (framing_of req = P.Http { version; keep_alive })
  in
  check_ka "1.1 defaults to keep" "GET / HTTP/1.1\r\n\r\n" P.V11 true;
  check_ka "1.1 + close" "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" P.V11
    false;
  check_ka "header name and value case-insensitive"
    "GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n" P.V11 false;
  check_ka "whitespace around value"
    "GET / HTTP/1.1\r\nConnection:   close  \r\n\r\n" P.V11 false;
  check_ka "1.0 defaults to close" "GET / HTTP/1.0\r\n\r\n" P.V10 false;
  check_ka "1.0 + keep-alive" "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    P.V10 true

let http_post () =
  let body = est_line "circuit h; end h" in
  let post path =
    Printf.sprintf "POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" path
      (String.length body) body
  in
  let e = estimate_exn "POST /estimate" (post "/estimate") in
  Alcotest.(check string) "body hdl" "circuit h; end h" e.P.hdl;
  let e = estimate_exn "POST /" (post "/") in
  Alcotest.(check string) "root alias" "circuit h; end h" e.P.hdl;
  (match request_exn "POST elsewhere" (post "/metrics") with
  | P.Malformed { status = 404; error } ->
      check_contains "404 hint" error "try POST /estimate"
  | _ -> Alcotest.fail "POST to a scrape path should be Malformed 404");
  (match
     request_exn "empty body" "POST /estimate HTTP/1.1\r\n\r\n"
   with
  | P.Invalid { error; _ } -> check_contains "needs body" error "Content-Length"
  | _ -> Alcotest.fail "empty POST should be Invalid");
  match request_exn "PUT" "PUT /estimate HTTP/1.1\r\n\r\n" with
  | P.Not_allowed { meth = "PUT" } -> ()
  | _ -> Alcotest.fail "PUT should be Not_allowed"

let http_adversarial () =
  (* A framing error consumes the whole buffer (it cannot be trusted)
     and will close the connection. *)
  let buf = "GET /\r\n\r\ntrailing bytes" in
  (match decode P.initial buf with
  | P.Frame
      ( { P.request = P.Malformed { status = 400; _ };
          framing = P.Http { keep_alive = false; _ }; _ },
        P.Ready, consumed ) ->
      Alcotest.(check int) "poisoned buffer fully consumed"
        (String.length buf) consumed
  | _ -> Alcotest.fail "short request line should be Malformed 400");
  (match
     request_exn "bad length" "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
   with
  | P.Malformed { status = 400; error = "bad Content-Length" } -> ()
  | _ -> Alcotest.fail "non-numeric Content-Length should be Malformed 400");
  (match
     request_exn "negative length"
       "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
   with
  | P.Malformed { status = 400; _ } -> ()
  | _ -> Alcotest.fail "negative Content-Length should be Malformed 400");
  (* An over-budget body is rejected from the declared length alone --
     before the body arrives -- and the framing closes. *)
  match
    decode P.initial
      (Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         (max_bytes + 1))
  with
  | P.Frame
      ( { P.request = P.Too_large { limit };
          framing = P.Http { keep_alive = false; _ }; _ },
        _, _ ) ->
      Alcotest.(check int) "limit echoed" max_bytes limit
  | _ -> Alcotest.fail "oversized declared body should be Too_large"

let http_split_reads () =
  let body = est_line "circuit s; end s" in
  let req =
    Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  (* Method prefix: could still become "GET ", so the decoder waits. *)
  (match decode P.initial "PO" with
  | P.Await -> ()
  | _ -> Alcotest.fail "method prefix should Await");
  (* Head not yet terminated. *)
  (match decode P.initial "POST /estimate HTTP/1.1\r\nContent-Le" with
  | P.Await -> ()
  | _ -> Alcotest.fail "partial head should Await");
  (* Head complete, body still in flight. *)
  (match decode P.initial (String.sub req 0 (String.length req - 4)) with
  | P.Await -> ()
  | _ -> Alcotest.fail "partial body should Await");
  let f, _, consumed = frame_exn "complete POST" (req ^ "GET /") in
  Alcotest.(check int) "consumes exactly one request" (String.length req)
    consumed;
  match f.P.request with
  | P.Estimate { hdl = "circuit s; end s"; _ } -> ()
  | _ -> Alcotest.fail "reassembled POST should decode"

(* Every cut point of an HTTP POST either Awaits or never appears;
   the full buffer always yields the same single frame, from whatever
   offset it is decoded. *)
let http_split_prop =
  let body = est_line ~id:(Json.Number 9.) "circuit p; end p" in
  let req =
    Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let other = est_line "circuit q; end q" in
  let frames =
    [ req; "GET /healthz HTTP/1.1\n\n";
      Printf.sprintf "POST / HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
        (String.length other) other ]
  in
  let stream = String.concat "" frames in
  let gen =
    QCheck2.Gen.(pair (int_bound (String.length req - 1)) (offset_gen frames))
  in
  S.qtest ~count:500 "http split-read invariance" gen (fun (cut, k) ->
      if not (same_from_offset stream k) then
        QCheck2.Test.fail_reportf "offset %d decodes differently" k;
      (match decode P.initial (String.sub req 0 cut) with
      | P.Await -> ()
      | _ -> QCheck2.Test.fail_report "http prefix must Await");
      match decode P.initial req with
      | P.Frame ({ P.request = P.Estimate { id; _ }; _ }, P.Ready, consumed) ->
          consumed = String.length req && id = Json.Number 9.
      | _ -> false)

(* The head cap holds however the head arrives: a 70 034-byte GET head
   is Too_large decoded whole, and also when its first 65 537 bytes
   come first (that prefix alone must wait, not answer). *)
let http_head_cap_split () =
  let head_bytes = 70_034 in
  let pre = "GET /healthz HTTP/1.1\r\nX-Pad: " and post = "\r\n\r\n" in
  let req =
    pre
    ^ String.make (head_bytes - String.length pre - String.length post) 'p'
    ^ post
  in
  Alcotest.(check int) "head size" head_bytes (String.length req);
  let too_large what = function
    | P.Frame ({ P.request = P.Too_large { limit = 65536 }; _ }, _, _) -> ()
    | P.Frame ({ P.request = P.Scrape { path }; _ }, _, _) ->
        Alcotest.failf "%s: over-cap head decoded as Scrape %s" what path
    | _ -> Alcotest.failf "%s: want Too_large 65536" what
  in
  too_large "whole" (decode P.initial req);
  (match decode P.initial (String.sub req 0 65_537) with
  | P.Await -> ()
  | _ -> Alcotest.fail "an unterminated 65 537-byte prefix must Await");
  too_large "after the prefix" (decode P.initial req);
  (* a head exactly at the cap still decodes *)
  let pad = 65536 - String.length pre - 2 in
  let at_cap = pre ^ String.make pad 'p' ^ post in
  match decode P.initial at_cap with
  | P.Frame ({ P.request = P.Scrape { path = "/healthz" }; _ }, _, _) -> ()
  | _ -> Alcotest.fail "a head of exactly 65536 bytes must decode"

(* Feed [chunks] the way Transport.deliver_frames does: after every read
   the decoder sees the unconsumed rest of the connection buffer, until
   it Awaits.  Returns the frames in order; fails on a step that
   consumes nothing or more than it was given. *)
let frames_of_chunks ?(max_bytes = max_bytes) chunks =
  let dec = ref P.initial and pending = ref "" and frames = ref [] in
  List.iter
    (fun chunk ->
      let data = !pending ^ chunk in
      let len = String.length data in
      let rec go pos =
        if pos >= len then pos
        else
          let rest = String.sub data pos (len - pos) in
          let advance d k =
            if k < 1 || k > len - pos then
              QCheck2.Test.fail_reportf "step consumed %d of %d bytes" k
                (len - pos);
            dec := d;
            go (pos + k)
          in
          match P.decode ~max_bytes !dec rest with
          | P.Await -> pos
          | P.Skip (d, k) -> advance d k
          | P.Frame (f, d, k) ->
              frames := f :: !frames;
              advance d k
      in
      let consumed = go 0 in
      pending := String.sub data consumed (len - consumed))
    chunks;
  List.rev !frames

(* Cut [s] at the given offsets. *)
let chunks_at s cuts =
  let cuts =
    List.sort_uniq compare
      (List.filter (fun c -> c > 0 && c < String.length s) cuts)
  in
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

(* A frame after which the daemon closes the connection: HTTP without
   keep-alive, or an HTTP 413 (see {!P.will_close}). *)
let closes (f : P.frame) =
  match (f.P.framing, f.P.request) with
  | P.Line, _ -> false
  | P.Http _, P.Too_large _ -> true
  | P.Http { keep_alive; _ }, _ -> not keep_alive

(* What the daemon acts on: each frame's request and framing up to and
   including the first that closes the connection.  [bytes] (the access
   log's size field) of an oversized frame counts what had arrived, so
   it is left out. *)
let until_close frames =
  let rec go = function
    | [] -> []
    | f :: rest ->
        (f.P.request, f.P.framing) :: (if closes f then [] else go rest)
  in
  go frames

(* Request pieces around every framing edge: both dialects, CRLF and
   bare-LF heads, a body holding a blank line, keep-alive and closing
   HTTP, a malformed head, lines straddling the line cap (one CRLF line
   at exactly [max_bytes]), heads straddling the head cap, and
   arbitrary bytes. *)
let stream_gen =
  let open QCheck2.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (0 -- 12) in
  let post ?(version = "HTTP/1.1") body =
    Printf.sprintf "POST /estimate %s\r\nContent-Length: %d\r\n\r\n%s"
      version (String.length body) body
  in
  let big_head k = "GET /x HTTP/1.1\r\nX-Pad: " ^ String.make k 'p' ^ "\r\n\r\n" in
  let piece =
    frequency
      [
        (4, map (fun w -> est_line w ^ "\n") word);
        (2, map (fun w -> est_line w ^ "\r\n") word);
        (1, pure "\n");
        (2, map (fun k -> String.make k 'x' ^ "\r\n") (max_bytes - 2 -- (max_bytes + 2)));
        (4, map (fun w -> post (est_line w)) word);
        (1, map (fun w -> post (est_line ("a\n\nb" ^ w))) word);
        (1, map (fun w -> post ~version:"HTTP/1.0" (est_line w)) word);
        (2, pure "GET /healthz HTTP/1.1\r\n\r\n");
        (1, pure "GET /metrics HTTP/1.1\n\n");
        (1, pure "GET /slo HTTP/1.0\r\n\r\n");
        (1, pure "POST / HTTP/1.1\r\nContent-Length: zz\r\n\r\n");
        (1, pure "DELETE /estimate HTTP/1.1\r\n\r\n");
        (1, map big_head (65480 -- 65520));
        (2, string_size ~gen:char (1 -- 16));
      ]
  in
  list_size (1 -- 6) piece >>= fun pieces ->
  let s = String.concat "" pieces in
  let n = String.length s in
  let cuts =
    if n <= 2000 then
      (* short streams: every offset, or a handful *)
      oneof [ pure (List.init n Fun.id); list_size (0 -- 12) (int_bound n) ]
    else list_size (0 -- 12) (int_bound n)
  in
  map (fun cuts -> (s, cuts)) cuts

let print_stream (s, cuts) =
  let shown = if String.length s > 400 then String.sub s 0 400 ^ "..." else s in
  Printf.sprintf "%S (%d bytes) cut at [%s]" shown (String.length s)
    (String.concat ";" (List.map string_of_int cuts))

let stream_split_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"stream split invariance"
       ~print:print_stream stream_gen (fun (s, cuts) ->
         until_close (frames_of_chunks [ s ])
         = until_close (frames_of_chunks (chunks_at s cuts))))

(* Arbitrary bytes, bare or behind an HTTP request line, whole or split:
   decode never raises and every step makes progress within its
   buffer (checked inside [frames_of_chunks]). *)
let decode_total_prop =
  let gen =
    QCheck2.Gen.(
      pair
        (map2 ( ^ )
           (oneofl [ ""; "GET / HTTP/1.1\r\n"; "POST /estimate HTTP/1.0\r\n" ])
           (string_size ~gen:char (0 -- 600)))
        (list_size (0 -- 8) (int_bound 700)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"decode is total on arbitrary bytes"
       ~print:print_stream gen (fun (s, cuts) ->
         ignore (frames_of_chunks [ s ]);
         ignore (frames_of_chunks ~max_bytes:16 (chunks_at s cuts));
         true))

(* --- responses --- *)

let encode_line () =
  let doc = Json.Object [ ("ok", Json.Bool true) ] in
  Alcotest.(check string) "line response is body + newline"
    (Json.encode doc ^ "\n")
    (P.encode P.Line (P.json_response doc));
  Alcotest.(check bool) "line framing never closes" false
    (P.will_close P.Line (P.text_response ~status:503 "x"))

let encode_http () =
  let doc = Json.Object [ ("ok", Json.Bool true) ] in
  let body = Json.encode doc ^ "\n" in
  let ka = P.Http { version = P.V11; keep_alive = true } in
  let wire = P.encode ka (P.json_response doc) in
  Alcotest.(check bool) "echoes 1.1" true
    (has_prefix ~prefix:"HTTP/1.1 200 OK\r\n" wire);
  check_contains "content type" wire "Content-Type: application/json\r\n";
  check_contains "content length" wire
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  check_contains "keep-alive header" wire "Connection: keep-alive\r\n";
  Alcotest.(check bool) "body at the end" true
    (String.length wire > String.length body
    && String.sub wire (String.length wire - String.length body)
         (String.length body)
       = body);
  let close = P.Http { version = P.V10; keep_alive = false } in
  let wire10 = P.encode close (P.text_response "hello\n") in
  Alcotest.(check bool) "echoes 1.0" true
    (has_prefix ~prefix:"HTTP/1.0 200 OK\r\n" wire10);
  check_contains "close header" wire10 "Connection: close\r\n";
  check_contains "text content type" wire10 "Content-Type: text/plain\r\n"

let encode_shed_and_close () =
  let ka = P.Http { version = P.V11; keep_alive = true } in
  let shed =
    P.json_response ~status:503 ~retry_after_s:1
      (Json.Object [ ("ok", Json.Bool false) ])
  in
  let wire = P.encode ka shed in
  Alcotest.(check bool) "503 status line" true
    (has_prefix ~prefix:"HTTP/1.1 503 Service Unavailable\r\n" wire);
  check_contains "retry-after header" wire "Retry-After: 1\r\n";
  Alcotest.(check bool) "shed keeps the connection" false (P.will_close ka shed);
  (* 413 poisons framing: closes even under keep-alive, and says so. *)
  let too_large = P.text_response ~status:413 "too big\n" in
  Alcotest.(check bool) "413 closes" true (P.will_close ka too_large);
  check_contains "413 close header" (P.encode ka too_large)
    "Connection: close\r\n"

let status_texts () =
  let cases =
    [ (200, "200 OK"); (400, "400 Bad Request"); (404, "404 Not Found");
      (405, "405 Method Not Allowed"); (413, "413 Content Too Large");
      (500, "500 Internal Server Error"); (503, "503 Service Unavailable");
      (418, "418 Status") ]
  in
  List.iter
    (fun (code, text) ->
      Alcotest.(check string) (string_of_int code) text (P.status_text code))
    cases

(* Request documents round-trip: encode an estimate as line JSON,
   decode it, and the id and hdl come back intact. *)
let roundtrip_prop =
  let gen =
    QCheck2.Gen.(pair (int_bound 1_000_000) (string_size ~gen:printable (1 -- 40)))
  in
  S.qtest ~count:200 "request round-trip" gen (fun (id, hdl) ->
      let hdl = String.map (fun c -> if c = '\n' then ' ' else c) hdl in
      let line = est_line ~id:(Json.Number (float_of_int id)) hdl in
      QCheck2.assume (String.length line <= max_bytes);
      match decode P.initial (line ^ "\n") with
      | P.Frame ({ P.request = P.Estimate e; _ }, _, _) ->
          e.P.id = Json.Number (float_of_int id) && e.P.hdl = hdl
      | _ -> false)

(* --- the daemon's other untrusted input: the "hdl" text --- *)

(* Dispatch hands every request's HDL to exactly this call: whatever
   the bytes, it must answer [Ok] or a typed [Error], never raise. *)
let circuits_total text =
  match Mae.Driver.string_circuits text with Ok _ | Error _ -> true

let hdl_corpus =
  Array.of_list
    (List.map Mae_hdl.Printer.to_string
       Mae_workload.Generators.
         [ counter 4; alu 2; decoder 3; parity 5; c17 (); full_adder ();
           shift_register 3; multiplier 2 ])

(* One byte-level edit; positions and lengths are taken modulo the
   current text, so every generated edit applies. *)
type edit =
  | Flip of int * int  (** xor the byte at a position with 1..255 *)
  | Delete of int * int
  | Duplicate of int * int
  | Truncate of int

let apply_edit text edit =
  let n = String.length text in
  if n = 0 then text
  else
    let at i = i mod n in
    let span i len = (at i, min (1 + (len mod 64)) (n - at i)) in
    match edit with
    | Flip (i, x) ->
        let b = Bytes.of_string text in
        Bytes.set b (at i)
          (Char.chr (Char.code text.[at i] lxor (1 + (x mod 255))));
        Bytes.to_string b
    | Delete (i, len) ->
        let i, len = span i len in
        String.sub text 0 i ^ String.sub text (i + len) (n - i - len)
    | Duplicate (i, len) ->
        let i, len = span i len in
        String.sub text 0 (i + len) ^ String.sub text i (n - i)
    | Truncate i -> String.sub text 0 (at i)

let hdl_bytes_prop =
  S.qtest ~count:500 "string_circuits total on arbitrary bytes"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 400))
    circuits_total

let hdl_mutation_prop =
  let open QCheck2.Gen in
  let pos = int_range 0 1_000_000 in
  let edit =
    oneof
      [ map2 (fun i x -> Flip (i, x)) pos nat;
        map2 (fun i l -> Delete (i, l)) pos nat;
        map2 (fun i l -> Duplicate (i, l)) pos nat;
        map (fun i -> Truncate i) pos ]
  in
  S.qtest ~count:500 "string_circuits total on mutated printer output"
    (pair (int_range 0 (Array.length hdl_corpus - 1))
       (list_size (int_range 1 8) edit))
    (fun (k, edits) ->
      circuits_total (List.fold_left apply_edit hdl_corpus.(k) edits))

(* A chain of 5000 modules, each instancing the next: the batch
   elaboration and the hierarchical flatten both answer, and the
   flattened top holds the one leaf device at the bottom. *)
let hdl_deep_chain () =
  let depth = 5000 in
  let b = Buffer.create (depth * 80) in
  for i = 0 to depth - 1 do
    Printf.bprintf b "module m%d { technology nmos25; port a in; port y out;\n"
      i;
    if i + 1 < depth then Printf.bprintf b "  device u m%d (a, y); }\n" (i + 1)
    else Buffer.add_string b "  device x inv (a, y); }\n"
  done;
  let text = Buffer.contents b in
  (match Mae.Driver.string_circuits text with
  | Ok cs -> Alcotest.(check int) "one circuit per module" depth (List.length cs)
  | Error e -> Alcotest.failf "chain: %a" Mae.Driver.pp_error e);
  match Mae_hdl.Parser.parse_string text with
  | Error _ -> Alcotest.fail "chain does not parse"
  | Ok design -> (
      match Mae_hdl.Elaborate.flatten design ~top:"m0" with
      | Ok c ->
          Alcotest.(check int) "flattened leaf" 1
            (Mae_netlist.Circuit.device_count c)
      | Error e ->
          Alcotest.failf "flatten: %a" Mae_hdl.Elaborate.pp_error e)

(* --- the text index: answers through it are the full path's answers --- *)

module D = Mae_serve.Dispatch
module Metrics = Mae_obs.Metrics

(* A dispatch queue answering on one end of a socket pair; the test
   reads each response line from the other end. *)
type bench = { d : D.t; conn : Mae_serve.Transport.conn; ic : in_channel }

let bench ~registry cas =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let transport =
    Mae_serve.Transport.create
      ~config:
        {
          Mae_serve.Transport.max_request_bytes = 1 lsl 20;
          idle_timeout_s = 60.;
          max_connections = 4;
        }
      ~listeners:[]
  in
  let conn =
    Mae_serve.Transport.connection ~plane:Mae_serve.Transport.Request_plane
      ~peer:"test" ours
  in
  let d =
    D.create ~config:{ D.registry; queue_watermark = 64 } ~transport ~cas
  in
  { d; conn; ic = Unix.in_channel_of_descr theirs }

let close_bench b =
  Unix.close b.conn.Mae_serve.Transport.fd;
  close_in b.ic

(* One request's response line with its leading seq field cut off (each
   queue numbers its own requests), and whether the index answered. *)
let ask b ?methods hdl =
  let hits0 = Metrics.counter_value D.text_index_hits in
  D.submit_estimate b.d b.conn P.Line ~decode_s:0. ~bytes:(String.length hdl)
    { P.id = Json.Null; hdl; methods };
  ignore (D.tick b.d);
  let line = input_line b.ic in
  let body =
    match String.index_opt line ',' with
    | Some i ->
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
    | None -> line
  in
  (body, Metrics.counter_value D.text_index_hits > hits0)

(* The full path's answer to the same request on the same store: a new
   queue, whose index is empty. *)
let full_path ~registry cas ?methods hdl =
  let b = bench ~registry cas in
  let body, indexed = ask b ?methods hdl in
  close_bench b;
  if indexed then Alcotest.fail "an empty index answered";
  body

let index_corpus =
  Mae_workload.Generators.
    [| counter 4; parity 5; decoder 3; c17 (); full_adder ();
       ripple_adder ~technology:"cmos20" 2; alu 2;
       counter ~technology:"unobtanium" 3 |]

let index_methods =
  [| None; Some [ "default" ]; Some [ "stdcell"; "gatearray" ]; Some [ "all" ];
     Some [ "nonesuch" ] |]

type variant = Same | Permuted of int | Spaced | Mutated of edit list

(* One text of a request: its modules printed in some order, with the
   same bytes, extra whitespace or byte edits. *)
let variant_text circuits v =
  let print cs = String.concat "\n" (List.map Mae_hdl.Printer.to_string cs) in
  match v with
  | Same -> print circuits
  | Permuted seed ->
      let a = Array.of_list circuits in
      let st = Random.State.make [| seed |] in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      print (Array.to_list a)
  | Spaced ->
      String.concat " \n\t" (String.split_on_char '\n' (print circuits))
  | Mutated edits -> List.fold_left apply_edit (print circuits) edits

let index_case_gen =
  let open QCheck2.Gen in
  let pos = int_range 0 1_000_000 in
  let edit =
    oneof
      [ map2 (fun i x -> Flip (i, x)) pos nat;
        map2 (fun i l -> Delete (i, l)) pos nat;
        map (fun i -> Truncate i) pos ]
  in
  let variant =
    frequency
      [ (3, pure Same); (2, map (fun s -> Permuted s) nat); (2, pure Spaced);
        (2, map (fun e -> Mutated e) (list_size (int_range 1 3) edit)) ]
  in
  let request =
    triple
      (list_size (int_range 1 3)
         (int_range 0 (Array.length index_corpus - 1)))
      variant
      (int_range 0 (Array.length index_methods - 1))
  in
  pair
    (oneofl [ None; Some 1; Some 2; Some 5 ])
    (list_size (int_range 1 6) request)

(* Each request of a case goes to one queue three times, among the
   others; an answer the index gave must equal, byte for byte, the full
   path's answer to the same request on the same store, and a request
   the full path fails is never answered by the index. *)
let index_matches_full_path =
  S.qtest ~count:100 "index answer = full path answer" index_case_gen
    (fun (cap, requests) ->
      let registry = Mae_tech.Registry.create () in
      let cas = Mae_db.Cas.create ?live_cap:cap () in
      let b = bench ~registry cas in
      let texts =
        List.map
          (fun (picks, v, m) ->
            ( variant_text
                (List.sort_uniq compare picks
                |> List.map (fun i -> index_corpus.(i)))
                v,
              index_methods.(m) ))
          requests
      in
      let answered_cached = Hashtbl.create 8 in
      let check (hdl, methods) =
        let body, indexed = ask b ?methods hdl in
        let reference = full_path ~registry cas ?methods hdl in
        (* with no cap nothing is evicted: a text this queue answered
           wholly from the store is answered by the index after that *)
        if cap = None && Hashtbl.mem answered_cached (hdl, methods)
           && not indexed
        then QCheck2.Test.fail_reportf "a repeat missed the index: %s" body;
        if String.starts_with ~prefix:{|"ok": true, "cached": true|} body then
          Hashtbl.replace answered_cached (hdl, methods) ();
        if indexed && not (String.equal body reference) then
          QCheck2.Test.fail_reportf "index answered@.%s@.full path@.%s" body
            reference;
        if indexed && not (String.starts_with ~prefix:{|"ok": true|} body)
        then QCheck2.Test.fail_reportf "index answered a failure: %s" body
      in
      List.iter check texts;
      List.iter check (List.rev texts);
      List.iter check texts;
      close_bench b;
      true)

(* A text the full path answered wholly from the store is answered by
   the index from then on, with the same bytes; a failed request never
   is, and replacing a process stops the index from answering with
   estimates made under the old one. *)
let index_hits_and_invalidation () =
  let registry = Mae_tech.Registry.create () in
  let cas = Mae_db.Cas.create () in
  let b = bench ~registry cas in
  let hdl =
    String.concat "\n"
      (List.map Mae_hdl.Printer.to_string
         Mae_workload.Generators.[ counter 4; parity 5 ])
  in
  let sights n hdl = List.init n (fun _ -> snd (ask b hdl)) in
  Alcotest.(check (list bool)) "computed, then stored, then indexed"
    [ false; false; true; true ] (sights 4 hdl);
  let from_index, indexed = ask b hdl in
  Alcotest.(check bool) "indexed" true indexed;
  Alcotest.(check string) "the full path's bytes" (full_path ~registry cas hdl)
    from_index;
  let lost =
    Mae_hdl.Printer.to_string
      (Mae_workload.Generators.counter ~technology:"unobtanium" 4)
  in
  Alcotest.(check (list bool)) "an unknown process is never indexed"
    [ false; false; false ] (sights 3 lost);
  Alcotest.(check (list bool)) "a parse error is never indexed"
    [ false; false; false ] (sights 3 "module broken {");
  let p = Mae_tech.Builtin.nmos25 in
  Mae_tech.Registry.add registry
    (Mae_tech.Process.make ~name:p.name ~lambda_microns:p.lambda_microns
       ~row_height:p.row_height ~track_pitch:9.
       ~feed_through_width:p.feed_through_width ~port_pitch:p.port_pitch
       ~min_spacing:p.min_spacing ~devices:p.devices);
  Alcotest.(check (list bool)) "a replaced process starts the index over"
    [ false; false; true ] (sights 3 hdl);
  let retuned, _ = ask b hdl in
  Alcotest.(check bool) "with estimates under the new process" false
    (String.equal retuned from_index);
  Alcotest.(check string) "the full path's bytes again"
    (full_path ~registry cas hdl) retuned;
  close_bench b

(* --- transport: frames decoded in place, answers that never wait --- *)

module T = Mae_serve.Transport

(* as in the daemon: a write to a closed peer is an error, not a signal *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let metric name =
  match Metrics.find_counter name with
  | Some c -> Metrics.counter_value c
  | None -> Alcotest.failf "no counter %s" name

let transport ?(max_request_bytes = max_bytes) () =
  T.create
    ~config:{ T.max_request_bytes; idle_timeout_s = 60.; max_connections = 4 }
    ~listeners:[]

(* A connection on one end of a socket pair, non-blocking like an
   accepted one, and the peer's end, non-blocking too. *)
let socket_pair () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock ours;
  Unix.set_nonblock theirs;
  (T.connection ~plane:T.Request_plane ~peer:"test" ours, theirs)

(* Everything the peer can read right now.  A connection closed with
   request bytes still unread reads as reset once its answers are
   read. *)
let read_available fd buf =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNRESET), _, _) ->
        ()
  in
  go ()

(* An answer naming what the daemon acts on: the request and its
   framing, and the frame's size except for an oversized or malformed
   one (which counts what had arrived). *)
let frame_answer (f : P.frame) =
  let str s = Json.String s and num n = Json.Number (Float.of_int n) in
  let request =
    match f.P.request with
    | P.Estimate e -> [ ("estimate", str e.P.hdl); ("id", e.P.id) ]
    | P.Scrape { path } -> [ ("scrape", str path) ]
    | P.Invalid { id; error } -> [ ("invalid", str error); ("id", id) ]
    | P.Malformed { status; error } -> [ ("malformed", str error); ("status", num status) ]
    | P.Too_large { limit } -> [ ("too_large", num limit) ]
    | P.Not_allowed { meth } -> [ ("not_allowed", str meth) ]
  in
  let bytes =
    match f.P.request with
    | P.Too_large _ | P.Malformed _ -> []
    | _ -> [ ("bytes", num f.P.bytes) ]
  in
  P.json_response (Json.Object (request @ bytes))

(* The bytes a peer reads back after sending [chunks] one read at a
   time: each frame answered inline, as the daemon answers scrapes. *)
let served chunks =
  let t = transport () in
  let conn, theirs = socket_pair () in
  let handle conn ~decode_s:_ f = T.send t conn f.P.framing (frame_answer f) in
  let out = Buffer.create 256 in
  List.iter
    (fun chunk ->
      let n = String.length chunk in
      let rec push off =
        if off < n then begin
          let w =
            match Unix.write_substring theirs chunk off (n - off) with
            | w -> w
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
            | exception Unix.Unix_error (Unix.EPIPE, _, _) -> n - off
          in
          if not conn.T.dead then T.service t conn ~handle;
          read_available theirs out;
          push (off + w)
        end
      in
      push 0;
      if not conn.T.dead then T.service t conn ~handle;
      read_available theirs out)
    chunks;
  Unix.shutdown theirs Unix.SHUTDOWN_SEND;
  while not conn.T.released do
    if not conn.T.dead then T.service t conn ~handle;
    if T.unsent conn > 0 then T.flush t conn;
    read_available theirs out
  done;
  read_available theirs out;
  Unix.close theirs;
  Buffer.contents out

(* What the pure decoder says the peer should read back. *)
let expected_answers s =
  let rec go = function
    | [] -> []
    | f :: rest ->
        P.encode f.P.framing (frame_answer f)
        :: (if closes f then [] else go rest)
  in
  String.concat "" (go (frames_of_chunks [ s ]))

let pipelined_stream =
  let post ?(version = "HTTP/1.1") body =
    Printf.sprintf "POST /estimate %s\r\nContent-Length: %d\r\n\r\n%s" version
      (String.length body) body
  in
  String.concat ""
    [ est_line "module a" ^ "\n"; est_line ~id:(Json.String "q\"2") "b\\c" ^ "\r\n";
      "\n"; post (est_line "posted\nhdl"); "GET /healthz HTTP/1.1\r\n\r\n";
      post ("  \012" ^ est_line "trimmed" ^ "\t\012 "); "{\"hdl\": 5}\n";
      post "{bad json"; "{\"id\": 3}\n"; post ~version:"HTTP/1.0" (est_line "last") ]

let transport_split_every_offset () =
  let s = pipelined_stream in
  let whole = served [ s ] in
  Alcotest.(check string) "one read answers as the decoder says"
    (expected_answers s) whole;
  for k = 1 to String.length s - 1 do
    let split = served [ String.sub s 0 k; String.sub s k (String.length s - k) ] in
    if not (String.equal split whole) then
      Alcotest.failf "split at %d answers %S, one read %S" k split whole
  done;
  Alcotest.(check string) "one byte per read" whole
    (served (List.init (String.length s) (fun i -> String.make 1 s.[i])))

let transport_split_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"transport split invariance"
       ~print:print_stream stream_gen (fun (s, cuts) ->
         let whole = served [ s ] in
         String.equal whole (expected_answers s)
         && String.equal whole (served (chunks_at s cuts))))

(* The decoder reads a mutable buffer in place; what it decodes must
   not change when the buffer is overwritten afterwards. *)
let decode_owns_its_frames () =
  let s = pipelined_stream in
  let buf = Bytes.of_string s in
  let rec frames st pos acc =
    match P.decode ~pos ~len:(Bytes.length buf) ~max_bytes st (Bytes.unsafe_to_string buf) with
    | P.Await -> List.rev acc
    | P.Skip (d, k) -> frames d (pos + k) acc
    | P.Frame (f, d, k) -> frames d (pos + k) (f :: acc)
  in
  let decoded = frames P.initial 0 [] in
  Bytes.fill buf 0 (Bytes.length buf) '#';
  Alcotest.(check bool) "frames unchanged by overwriting the buffer" true
    (decoded = frames_of_chunks [ s ]);
  (* bytes past [len] are not read *)
  let line = est_line "x" ^ "\n" in
  let padded = Bytes.of_string (line ^ est_line "y" ^ "\n") in
  let len = String.length line - 1 in
  Alcotest.(check bool) "a line cut at len awaits" true
    (P.decode ~len ~max_bytes P.initial (Bytes.unsafe_to_string padded) = P.Await)

(* At [max_pending_bytes] the decoder always takes a step. *)
let max_pending_prop =
  let gen = QCheck2.Gen.(map2 (fun (s, _) pad -> (s, pad)) stream_gen (string_size ~gen:char (0 -- 64))) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"a full buffer never awaits"
       ~print:(fun (s, _) -> print_stream (s, []))
       gen (fun (s, pad) ->
         let bound = P.max_pending_bytes ~max_bytes in
         let rec fill acc = if String.length acc >= bound then acc else fill (acc ^ s ^ pad) in
         let buf = if s ^ pad = "" then String.make bound 'x' else fill "" in
         P.decode ~max_bytes P.initial buf <> P.Await))

(* The longest frame that still awaits bytes: a 64 KiB head, its
   terminator and a body at the line cap.  One byte short of
   [max_pending_bytes] it awaits; at it, it decodes. *)
let max_pending_is_tight () =
  let head_start = Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\nX-Pad: " max_bytes in
  let head = head_start ^ String.make (65536 - String.length head_start) 'p' in
  let body = String.make max_bytes ' ' in
  let frame = head ^ "\r\n\r\n" ^ body in
  let bound = P.max_pending_bytes ~max_bytes in
  Alcotest.(check int) "the frame is the bound" bound (String.length frame);
  Alcotest.(check bool) "one byte short awaits" true
    (P.decode ~len:(bound - 1) ~max_bytes P.initial frame = P.Await);
  match P.decode ~max_bytes P.initial frame with
  | P.Frame (_, _, k) -> Alcotest.(check int) "the whole frame" bound k
  | _ -> Alcotest.fail "a full frame must decode"

(* An HTTP body decodes as its [String.trim] copy would: a parse error
   is the copy's error text with the same offsets, and a document is
   the request a line holding the copy's document decodes to. *)
let http_body_trim_prop =
  let gen =
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (0 -- 8)
           (oneofl
              [ " "; "\012"; "\t"; "\r"; "\n"; "\011"; "\000"; {|{"hdl": "x"}|}; {|{"hdl": 1}|};
                "{"; "}"; "[1, 2]"; {|"s"|}; "\xa0" ])))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"http body trimmed as String.trim"
       ~print:(Printf.sprintf "%S") gen (fun body ->
         let wire =
           Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
             (String.length body) body
         in
         let expected =
           match Json.parse (String.trim body) with
           | Error e ->
               P.Invalid { id = Json.Null; error = "bad request JSON: " ^ e }
           | Ok doc -> (
               match P.decode ~max_bytes P.initial (Json.encode doc ^ "\n") with
               | P.Frame (f, _, _) -> f.P.request
               | _ -> Alcotest.fail "a one-line document must decode")
         in
         match P.decode ~max_bytes P.initial wire with
         | P.Frame (f, _, _) -> body = "" || f.P.request = expected
         | _ -> false))

(* A sender that keeps its socket full: while it decodes and after
   every readiness event, the connection holds at most what the decoder
   may need.  The sender gets a head start, so the first read reaches
   the bound. *)
let transport_read_bound () =
  let max_request_bytes = 4096 in
  let t = transport ~max_request_bytes () in
  let conn, theirs = socket_pair () in
  Unix.clear_nonblock theirs;
  let line = est_line (String.make 200 'x') ^ "\n" in
  let lines = (32 * 1024 * 1024) / String.length line in
  let writer =
    Domain.spawn (fun () ->
        let batch = String.concat "" (List.init 256 (fun _ -> line)) in
        let rec go left =
          if left > 0 then begin
            let k = min 256 left in
            let chunk = String.sub batch 0 (k * String.length line) in
            let rec all off =
              if off < String.length chunk then
                all (off + Unix.write_substring theirs chunk off (String.length chunk - off))
            in
            all 0;
            go (left - k)
          end
        in
        go lines;
        Unix.shutdown theirs Unix.SHUTDOWN_SEND)
  in
  let bound = P.max_pending_bytes ~max_bytes:max_request_bytes in
  let frames = ref 0 and worst = ref 0 in
  let handle conn ~decode_s:_ (f : P.frame) =
    worst := max !worst conn.T.rlen;
    match f.P.request with P.Estimate _ -> incr frames | _ -> Alcotest.fail "not an estimate"
  in
  Unix.sleepf 0.05;
  while not conn.T.dead do
    ignore (Unix.select [ conn.T.fd ] [] [] 1.0);
    T.service t conn ~handle;
    if max !worst conn.T.rlen > bound then
      Alcotest.failf "%d bytes buffered, bound %d" (max !worst conn.T.rlen) bound;
    if Bytes.length conn.T.rbuf > bound then
      Alcotest.failf "a %d-byte buffer, bound %d" (Bytes.length conn.T.rbuf) bound
  done;
  Domain.join writer;
  Unix.close theirs;
  Alcotest.(check int) "every line decoded" lines !frames;
  Alcotest.(check bool) "the bound was reached" true (!worst > bound / 2)

(* A peer that does not read: sends never wait, unsent answers queue in
   order, a reader drains them, and past the cap the connection
   closes and is counted. *)
let transport_unsent_bytes () =
  let t = transport () in
  let conn, theirs = socket_pair () in
  let answer i = P.text_response (Printf.sprintf "%06d" i ^ String.make 99_994 'a') in
  let sent = Buffer.create (1 lsl 20) in
  for i = 1 to 8 do
    let r = answer i in
    Buffer.add_string sent (P.encode P.Line r);
    T.send t conn P.Line r
  done;
  Alcotest.(check bool) "answers wait unsent" true (T.unsent conn > 0);
  let got = Buffer.create (1 lsl 20) in
  while T.unsent conn > 0 do
    read_available theirs got;
    T.flush t conn
  done;
  read_available theirs got;
  Alcotest.(check bool) "the peer reads every answer in order" true
    (Buffer.contents got = Buffer.contents sent);
  let stalled0 = metric "mae_serve_connections_stalled_closed_total" in
  let i = ref 0 in
  while not conn.T.released do
    incr i;
    if !i > 1000 then Alcotest.fail "never closed past the cap";
    T.send t conn P.Line (answer !i)
  done;
  Alcotest.(check int) "counted" (stalled0 + 1)
    (metric "mae_serve_connections_stalled_closed_total");
  Alcotest.(check bool) "closed at the cap, not before" true
    (!i * 100_000 > T.max_unsent_bytes);
  Unix.close theirs

(* One answer larger than the cap, to a peer that reads it: the cap
   judges the backlog left by earlier answers, so the whole answer
   arrives, the connection stays open and no stall is counted. *)
let transport_large_answer () =
  let t = transport () in
  let conn, theirs = socket_pair () in
  let big = P.text_response (String.make (T.max_unsent_bytes + (1 lsl 20)) 'b') in
  let small = P.text_response "after" in
  let sent = P.encode P.Line big ^ P.encode P.Line small in
  let stalled0 = metric "mae_serve_connections_stalled_closed_total" in
  T.send t conn P.Line big;
  Alcotest.(check bool) "the answer waits unsent, over the cap" true
    (T.unsent conn > T.max_unsent_bytes);
  T.send t conn P.Line small;
  let got = Buffer.create (String.length sent) in
  while T.unsent conn > 0 && not conn.T.released do
    read_available theirs got;
    T.flush t conn
  done;
  read_available theirs got;
  Alcotest.(check bool) "the connection stays open" false conn.T.released;
  Alcotest.(check int) "no stall counted" stalled0
    (metric "mae_serve_connections_stalled_closed_total");
  Alcotest.(check bool) "the peer reads both answers whole" true
    (Buffer.contents got = sent);
  Unix.close conn.T.fd;
  Unix.close theirs

let () =
  Alcotest.run "serve"
    [ ( "protocol-line",
        [ Alcotest.test_case "basics" `Quick line_basics;
          Alcotest.test_case "blank lines and partial reads" `Quick
            line_blank_and_await;
          Alcotest.test_case "request errors" `Quick line_request_errors;
          Alcotest.test_case "methods field" `Quick line_methods;
          Alcotest.test_case "oversize resync" `Quick line_oversize_resync ] );
      ( "protocol-http",
        [ Alcotest.test_case "GET scrapes" `Quick http_get;
          Alcotest.test_case "keep-alive negotiation" `Quick http_keep_alive;
          Alcotest.test_case "POST estimates" `Quick http_post;
          Alcotest.test_case "adversarial headers" `Quick http_adversarial;
          Alcotest.test_case "split reads" `Quick http_split_reads;
          Alcotest.test_case "head cap ignores read boundaries" `Quick
            http_head_cap_split ] );
      ( "protocol-encode",
        [ Alcotest.test_case "line responses" `Quick encode_line;
          Alcotest.test_case "http responses" `Quick encode_http;
          Alcotest.test_case "shed and close semantics" `Quick
            encode_shed_and_close;
          Alcotest.test_case "status texts" `Quick status_texts ] );
      ( "protocol-props",
        [ split_read_prop; http_split_prop; roundtrip_prop;
          stream_split_prop; decode_total_prop ] );
      ( "hdl-input",
        [ hdl_bytes_prop; hdl_mutation_prop;
          Alcotest.test_case "5000-module instance chain" `Quick
            hdl_deep_chain ] );
      ( "transport",
        [ Alcotest.test_case "split at every offset" `Quick
            transport_split_every_offset;
          transport_split_prop;
          Alcotest.test_case "decoded frames own their bytes" `Quick
            decode_owns_its_frames;
          max_pending_prop;
          Alcotest.test_case "the pending bound is tight" `Quick
            max_pending_is_tight;
          http_body_trim_prop;
          Alcotest.test_case "a full socket stays within the bound" `Quick
            transport_read_bound;
          Alcotest.test_case "unsent answers queue, then close at the cap"
            `Quick transport_unsent_bytes;
          Alcotest.test_case "one answer past the cap is delivered" `Quick
            transport_large_answer ] );
      ( "text-index",
        [ index_matches_full_path;
          Alcotest.test_case "hits and invalidation" `Quick
            index_hits_and_invalidation ] ) ]

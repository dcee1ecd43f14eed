(* A minimal JSON reader/writer so the telemetry artifacts can be
   emitted and checked without an external dependency.  The serve
   daemon decodes every request and encodes every response and
   access-log line with it, so both halves move strings in runs: one
   word-at-a-time scan ([plain_run_end]) finds the next byte that needs
   escaping, the writer appends each run with one blit, and the reader
   measures a string, then writes it once into an exact-size result.
   Numbers print through the C formatter directly.  The reader is a
   plain recursive-descent parser over the full JSON grammar, over a
   whole string or a span of one; the test suite and the @obs-smoke
   gate use it to assert that exported traces and metric dumps are
   well formed. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* --- the byte scan both halves share --- *)

(* The bytes a JSON string cannot hold raw: '"', '\\' and the control
   bytes below 0x20.  The writer escapes exactly these and the reader
   stops a plain run at exactly these. *)
let[@inline] is_special c = c = '"' || c = '\\' || Char.code c < 0x20

(* The index of the lowest byte flagged in [mask], a word whose only set
   bits are byte high bits: the bytes below the lowest set bit, counted
   by one multiply. *)
let[@inline] first_flagged mask =
  let low = Int64.logand mask (Int64.neg mask) in
  let below = Int64.sub (Int64.shift_right_logical low 7) 1L in
  Int64.to_int
    (Int64.shift_right_logical
       (Int64.mul (Int64.logand below 0x0101010101010101L) 0x0101010101010101L)
       56)

(* The end of the plain run of [text] that starts at [i]: the index of
   the first special byte before [stop], or [stop].  Eight bytes at a
   time while a whole word fits, read little-endian so the word's
   lowest byte comes first.  A byte is special exactly when it is zero
   after xor with '"' or with '\\', or is below 0x20; the borrow tests
   below flag those, and a borrow only runs upward, so the lowest
   flagged byte is the first special one (a byte >= 0x80 is never
   flagged on its own).  The last bytes are checked one at a time.
   [stop] is at most [String.length text]. *)
let plain_run_end text i stop =
  let i = ref i and found = ref (-1) in
  while !found < 0 && !i + 8 <= stop do
    let w = String.get_int64_le text !i in
    let q = Int64.logxor w 0x2222222222222222L in
    let b = Int64.logxor w 0x5C5C5C5C5C5C5C5CL in
    let hits =
      Int64.logand
        (Int64.logor
           (Int64.logor
              (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
              (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
           (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w)))
        0x8080808080808080L
    in
    if hits = 0L then i := !i + 8 else found := !i + first_flagged hits
  done;
  if !found >= 0 then !found
  else begin
    while !i < stop && not (is_special (String.unsafe_get text !i)) do
      incr i
    done;
    !i
  end

(* --- escaping (the writer side) --- *)

let hex_digits = "0123456789abcdef"

(* [s] as a quoted literal, appended in runs: the plain bytes between
   two special ones go in with one blit. *)
let add_escaped buf s =
  let len = String.length s in
  Buffer.add_char buf '"';
  let rec go start =
    let i = plain_run_end s start len in
    Buffer.add_substring buf s start (i - start);
    if i < len then begin
      (match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          let code = Char.code c in
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[code lsr 4];
          Buffer.add_char buf hex_digits.[code land 0xF]);
      go (i + 1)
    end
  in
  go 0;
  Buffer.add_char buf '"'

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* --- writing --- *)

(* The C formatter every float conversion of Printf ends in; called
   directly it skips the format interpreter, and its output is the
   same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integer-valued floats print without a decimal point (counter values,
   request ids); everything else gets enough digits to round-trip. *)
let number_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then format_float "%.0f" v
  else format_float "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number v -> Buffer.add_string buf (number_repr v)
  | String s -> add_escaped buf s
  | Array l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_escaped buf k;
          Buffer.add_string buf ": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let encode v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_failure of string

(* A parse reads [text] from [base] up to [stop]; offsets in error
   messages count from [base], as if the span were its own string. *)
type cursor = { text : string; base : int; stop : int; mutable pos : int }

let fail cur msg =
  raise
    (Parse_failure (Printf.sprintf "%s at offset %d" msg (cur.pos - cur.base)))

let peek cur =
  if cur.pos < cur.stop then Some (String.unsafe_get cur.text cur.pos)
  else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    cur.pos < cur.stop
    &&
    match String.unsafe_get cur.text cur.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance cur
  done

let expect cur c =
  if cur.pos < cur.stop && Char.equal (String.unsafe_get cur.text cur.pos) c
  then advance cur
  else fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get cur.text (cur.pos + i) = word.[i] && same (i + 1))
  in
  if cur.pos + n <= cur.stop && same 0 then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Write the UTF-8 encoding of [code] into [dst] at [o] unless [dst] is
   empty (the measuring walk); the index after it either way. *)
let put_utf8 dst o code =
  let set k b = Bytes.unsafe_set dst (o + k) (Char.unsafe_chr b) in
  let len =
    if code < 0x80 then 1
    else if code < 0x800 then 2
    else if code < 0x10000 then 3
    else 4
  in
  if Bytes.length dst > 0 then begin
    match len with
    | 1 -> set 0 code
    | 2 ->
        set 0 (0xC0 lor (code lsr 6));
        set 1 (0x80 lor (code land 0x3F))
    | 3 ->
        set 0 (0xE0 lor (code lsr 12));
        set 1 (0x80 lor ((code lsr 6) land 0x3F));
        set 2 (0x80 lor (code land 0x3F))
    | _ ->
        set 0 (0xF0 lor (code lsr 18));
        set 1 (0x80 lor ((code lsr 12) land 0x3F));
        set 2 (0x80 lor ((code lsr 6) land 0x3F));
        set 3 (0x80 lor (code land 0x3F))
  end;
  o + len

let hex4 cur =
  if cur.pos + 4 > cur.stop then fail cur "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = String.unsafe_get cur.text cur.pos in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance cur
  done;
  !v

(* The code point of a \u escape whose 'u' the cursor has just passed;
   a high surrogate must be followed by an escaped low one. *)
let unicode_escape cur =
  let hi = hex4 cur in
  if hi >= 0xD800 && hi <= 0xDBFF then begin
    expect cur '\\';
    expect cur 'u';
    let lo = hex4 cur in
    if lo < 0xDC00 || lo > 0xDFFF then fail cur "unpaired surrogate";
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else if hi >= 0xDC00 && hi <= 0xDFFF then fail cur "unpaired surrogate"
  else hi

(* One walk over a string body, from just past its opening quote to its
   closing quote (where it leaves the cursor): the decoded length.  With
   a non-empty [dst] it also writes the decoded bytes there.  The first
   walk measures and validates, raising every error where the byte
   reader would; the second, over a string already known good, fills
   the exact-size result. *)
let string_walk cur dst =
  let text = cur.text in
  let write = Bytes.length dst > 0 in
  let rec go n =
    let start = cur.pos in
    let i = plain_run_end text start cur.stop in
    if write then Bytes.blit_string text start dst n (i - start);
    let n = n + (i - start) in
    cur.pos <- i;
    if i >= cur.stop then fail cur "unterminated string";
    match String.unsafe_get text i with
    | '"' -> n
    | '\\' ->
        advance cur;
        if cur.pos >= cur.stop then fail cur "bad escape";
        let e = String.unsafe_get text cur.pos in
        let c =
          match e with
          | '"' | '\\' | '/' | 'u' -> e
          | 'b' -> '\b'
          | 'f' -> '\012'
          | 'n' -> '\n'
          | 'r' -> '\r'
          | 't' -> '\t'
          | _ -> fail cur "bad escape"
        in
        advance cur;
        if e = 'u' then go (put_utf8 dst n (unicode_escape cur))
        else begin
          if write then Bytes.unsafe_set dst n c;
          go (n + 1)
        end
    | _ -> fail cur "raw control char in string"
  in
  go 0

let parse_string_body cur =
  expect cur '"';
  let start = cur.pos in
  let n = string_walk cur Bytes.empty in
  let close = cur.pos in
  let s =
    if n = close - start then
      (* no escapes: every escape decodes shorter than it is written *)
      String.sub cur.text start n
    else begin
      let dst = Bytes.create n in
      cur.pos <- start;
      ignore (string_walk cur dst);
      Bytes.unsafe_to_string dst
    end
  in
  cur.pos <- close + 1;
  s

let parse_number cur =
  let start = cur.pos in
  let accept f =
    match peek cur with Some c when f c -> advance cur; true | _ -> false
  in
  let digits () =
    let any = ref false in
    while accept (function '0' .. '9' -> true | _ -> false) do
      any := true
    done;
    !any
  in
  ignore (accept (Char.equal '-'));
  if not (digits ()) then fail cur "expected digits";
  if accept (Char.equal '.') && not (digits ()) then
    fail cur "expected fraction digits";
  if accept (fun c -> c = 'e' || c = 'E') then begin
    ignore (accept (fun c -> c = '+' || c = '-'));
    if not (digits ()) then fail cur "expected exponent digits"
  end;
  match float_of_string_opt (String.sub cur.text start (cur.pos - start)) with
  | Some f -> Number f
  | None -> fail cur "unparseable number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' -> parse_object cur
  | Some '[' -> parse_array cur
  | Some '"' -> String (parse_string_body cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected %C" c)

and parse_object cur =
  expect cur '{';
  skip_ws cur;
  if peek cur = Some '}' then begin
    advance cur;
    Object []
  end
  else begin
    let rec members acc =
      skip_ws cur;
      let key = parse_string_body cur in
      skip_ws cur;
      expect cur ':';
      let v = parse_value cur in
      skip_ws cur;
      match peek cur with
      | Some ',' ->
          advance cur;
          members ((key, v) :: acc)
      | Some '}' ->
          advance cur;
          Object (List.rev ((key, v) :: acc))
      | _ -> fail cur "expected ',' or '}'"
    in
    members []
  end

and parse_array cur =
  expect cur '[';
  skip_ws cur;
  if peek cur = Some ']' then begin
    advance cur;
    Array []
  end
  else begin
    let rec elements acc =
      let v = parse_value cur in
      skip_ws cur;
      match peek cur with
      | Some ',' ->
          advance cur;
          elements (v :: acc)
      | Some ']' ->
          advance cur;
          Array (List.rev (v :: acc))
      | _ -> fail cur "expected ',' or ']'"
    in
    elements []
  end

let parse_span text ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length text then
    invalid_arg "Mae_obs.Json.parse_span";
  let cur = { text; base = pos; stop = pos + len; pos } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> cur.stop then
        Error (Printf.sprintf "trailing garbage at offset %d" (cur.pos - pos))
      else Ok v
  | exception Parse_failure msg -> Error msg

let parse text = parse_span text ~pos:0 ~len:(String.length text)

(* --- accessors --- *)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Array l -> Some l | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_number = function Number f -> Some f | _ -> None

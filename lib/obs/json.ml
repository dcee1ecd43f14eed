(* A minimal JSON reader/escaper so the telemetry artifacts can be
   emitted and checked without an external dependency.  The writer side
   of Mae_obs builds its documents with Buffer + [escape]; the reader is
   a plain recursive-descent parser over the full JSON grammar.  The
   serve daemon decodes every request with it, so its string reader
   copies runs of plain bytes rather than one byte at a time; the test
   suite and the @obs-smoke gate use it to assert that exported traces
   and metric dumps are well formed. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* --- escaping (the writer side) --- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* --- writing --- *)

(* Integer-valued floats print without a decimal point (counter values,
   request ids); everything else gets enough digits to round-trip. *)
let number_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number v -> Buffer.add_string buf (number_repr v)
  | String s -> Buffer.add_string buf (escape s)
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
          Buffer.add_string buf (escape k);
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

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_failure (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some x when Char.equal x c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.equal (String.sub cur.text cur.pos n) word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let add_utf8 buf code =
  (* encode a BMP code point; surrogate pairs are rejoined by the
     caller before reaching here. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 cur =
  if cur.pos + 4 > String.length cur.text then fail cur "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = cur.text.[cur.pos] in
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

(* Bytes that end a run of plain string content. *)
let is_special c = c = '"' || c = '\\' || Char.code c < 0x20

let parse_string_body cur =
  expect cur '"';
  let text = cur.text in
  let len = String.length text in
  let buf = Buffer.create 16 in
  let rec go () =
    (* copy the run up to the next quote, backslash or control byte *)
    let start = cur.pos in
    let i = ref start in
    while !i < len && not (is_special (String.unsafe_get text !i)) do
      incr i
    done;
    Buffer.add_substring buf text start (!i - start);
    cur.pos <- !i;
    if !i >= len then fail cur "unterminated string";
    match String.unsafe_get text !i with
    | '"' -> advance cur
    | '\\' -> begin
        advance cur;
        begin
          match peek cur with
          | Some '"' -> advance cur; Buffer.add_char buf '"'
          | Some '\\' -> advance cur; Buffer.add_char buf '\\'
          | Some '/' -> advance cur; Buffer.add_char buf '/'
          | Some 'b' -> advance cur; Buffer.add_char buf '\b'
          | Some 'f' -> advance cur; Buffer.add_char buf '\012'
          | Some 'n' -> advance cur; Buffer.add_char buf '\n'
          | Some 'r' -> advance cur; Buffer.add_char buf '\r'
          | Some 't' -> advance cur; Buffer.add_char buf '\t'
          | Some 'u' ->
              advance cur;
              let hi = hex4 cur in
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                (* high surrogate: a low surrogate must follow *)
                expect cur '\\';
                expect cur 'u';
                let lo = hex4 cur in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail cur "unpaired surrogate";
                add_utf8 buf
                  (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if hi >= 0xDC00 && hi <= 0xDFFF then
                fail cur "unpaired surrogate"
              else add_utf8 buf hi
          | _ -> fail cur "bad escape"
        end;
        go ()
      end
    | _ -> fail cur "raw control char in string"
  in
  go ();
  Buffer.contents buf

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

let parse text =
  let cur = { text; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length text then
        Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
      else Ok v
  | exception Parse_failure msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Array l -> Some l | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_number = function Number f -> Some f | _ -> None

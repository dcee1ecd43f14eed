type error = { line : int; column : int; message : string }

exception Error of error

type t = {
  text : string;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (** offset of the current line's first byte *)
  mutable comment_column : int;
      (** column of a comment that runs to the end of the text, else 0:
          a comment does not advance the column, so [Eof] after one sits
          where the comment began *)
  mutable token_line : int;
  mutable token_column : int;
  names : Mae_netlist.Intern.t;
  mutable ident : int;  (** id of the last identifier *)
}

(* Printed HDL holds about one distinct name per 20 to 40 bytes, so a
   table sized from the text rarely grows. *)
let create text =
  {
    text;
    pos = 0;
    line = 1;
    line_start = 0;
    comment_column = 0;
    token_line = 1;
    token_column = 1;
    names = Mae_netlist.Intern.create (min 4096 (String.length text / 20));
    ident = 0;
  }

let token_line t = t.token_line

let token_column t = t.token_column

let ident t = t.ident

let ident_name t = Mae_netlist.Intern.name t.names t.ident

let start_module t = Mae_netlist.Intern.reset t.names

let idents t = Mae_netlist.Intern.names t.names

(* [ident_chars.[Char.code c]] is ['1'] where [c] may be part of an
   identifier: one load per byte of a name. *)
let ident_chars =
  String.init 256 (fun k ->
      match Char.chr k with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' -> '1'
      | _ -> '0')

let is_ident c = Char.equal (String.unsafe_get ident_chars (Char.code c)) '1'

(* [text.[i + k .. i + n - 1]] equals [kw.[k .. n - 1]], [n] the
   length of [kw]; the caller has checked that the word is [n] long. *)
let rec rest_matches text i kw k =
  k >= String.length kw
  || (Char.equal text.[i + k] kw.[k] && rest_matches text i kw (k + 1))

(* The token for the word [text.[i .. j - 1]], whose hash is [h]:
   keywords are told apart by length and first byte, so only
   identifiers are interned. *)
let word t text i j h =
  match (j - i, text.[i]) with
  | 3, 'n' when rest_matches text i "net" 1 -> Token.Net
  | 4, 'p' when rest_matches text i "port" 1 -> Token.Port
  | 6, 'm' when rest_matches text i "module" 1 -> Token.Module
  | 6, 'd' when rest_matches text i "device" 1 -> Token.Device
  | 10, 't' when rest_matches text i "technology" 1 -> Token.Technology
  | _ ->
      t.ident <- Mae_netlist.Intern.intern_sub t.names text i j h;
      Token.Ident

let rec skip_line text len i =
  if i < len && text.[i] <> '\n' then skip_line text len (i + 1) else i

let punct t i tok =
  t.pos <- i + 1;
  tok

(* An identifier or keyword starts at [i]: one pass finds its end and
   its intern-table hash, folded into the scan. *)
let scan_word t text len i =
  let j = ref i and h = ref 1 in
  while !j < len && is_ident (String.unsafe_get text !j) do
    h := Mae_netlist.Intern.step t.names !h (String.unsafe_get text !j);
    incr j
  done;
  t.pos <- !j;
  word t text i !j !h

let rec scan t text len i =
  if i >= len then begin
    t.pos <- i;
    t.token_line <- t.line;
    t.token_column <-
      (if t.comment_column > 0 then t.comment_column else i - t.line_start + 1);
    Token.Eof
  end
  else
    match text.[i] with
    | '\n' ->
        t.line <- t.line + 1;
        t.line_start <- i + 1;
        scan t text len (i + 1)
    | ' ' | '\t' | '\r' -> scan t text len (i + 1)
    | '#' -> comment t text len i
    | '/' when i + 1 < len && text.[i + 1] = '/' -> comment t text len i
    | c -> begin
        t.token_line <- t.line;
        t.token_column <- i - t.line_start + 1;
        match c with
        | '{' -> punct t i Token.Lbrace
        | '}' -> punct t i Token.Rbrace
        | '(' -> punct t i Token.Lparen
        | ')' -> punct t i Token.Rparen
        | ',' -> punct t i Token.Comma
        | ';' -> punct t i Token.Semi
        | c when is_ident c -> scan_word t text len i
        | c ->
            raise
              (Error
                 {
                   line = t.line;
                   column = t.token_column;
                   message = Printf.sprintf "unexpected character %C" c;
                 })
      end

and comment t text len i =
  let j = skip_line text len i in
  if j >= len then t.comment_column <- i - t.line_start + 1;
  scan t text len j

let next t = scan t t.text (String.length t.text) t.pos

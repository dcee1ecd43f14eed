type error = { line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "%d:%d: %s" e.line e.column e.message

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
}

let create text =
  {
    text;
    pos = 0;
    line = 1;
    line_start = 0;
    comment_column = 0;
    token_line = 1;
    token_column = 1;
  }

let token_line t = t.token_line

let token_column t = t.token_column

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' -> true
  | _ -> false

(* [text.[i + k .. i + n - 1]] equals [kw.[k .. n - 1]], [n] the
   length of [kw]; the caller has checked that the word is [n] long. *)
let rec rest_matches text i kw k =
  k >= String.length kw
  || (Char.equal text.[i + k] kw.[k] && rest_matches text i kw (k + 1))

(* The token for the word [text.[i .. j - 1]]: keywords are told apart
   by length and first byte, so only identifiers take a substring. *)
let word text i j =
  match (j - i, text.[i]) with
  | 3, 'n' when rest_matches text i "net" 1 -> Token.Net
  | 4, 'p' when rest_matches text i "port" 1 -> Token.Port
  | 6, 'm' when rest_matches text i "module" 1 -> Token.Module
  | 6, 'd' when rest_matches text i "device" 1 -> Token.Device
  | 10, 't' when rest_matches text i "technology" 1 -> Token.Technology
  | _ -> Token.Ident (String.sub text i (j - i))

let rec skip_line text len i =
  if i < len && text.[i] <> '\n' then skip_line text len (i + 1) else i

let rec ident_end text len j =
  if j < len && is_ident text.[j] then ident_end text len (j + 1) else j

let punct t i tok =
  t.pos <- i + 1;
  tok

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
        | c when is_ident c ->
            let j = ident_end text len (i + 1) in
            t.pos <- j;
            word text i j
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

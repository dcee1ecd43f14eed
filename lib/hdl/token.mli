(** Tokens of the structural HDL (see {!Parser} for the grammar).

    Every token is a constant: an identifier's text is interned by the
    {!Lexer}, which hands out its id ({!Lexer.ident}) and its text
    ({!Lexer.ident_name}). *)

type t =
  | Module
  | Technology
  | Port
  | Net
  | Device
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Ident
  | Eof

val equal : t -> t -> bool

val to_string : t -> string
(** The token's text; ["identifier"] for [Ident]. *)

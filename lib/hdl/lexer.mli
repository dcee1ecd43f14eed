(** Hand-written pull lexer for the structural HDL.

    Identifiers are [[A-Za-z0-9_.\[\]]+] (bracketed bus bits like [a\[3\]]
    lex as single identifiers); [#] and [//] start line comments.

    The lexer scans its text in place and hands out one token per
    {!next} call; no token list is built.  Lines and columns count from
    1, a tab is one column, and a comment does not advance the column
    (so [Eof] after a comment that ends the text sits at the comment's
    first character). *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

exception Error of error
(** Raised by {!next} at a character no token starts with. *)

type t

val create : string -> t
(** A lexer positioned at the start of the text. *)

val next : t -> Token.t
(** The next token; [Eof] at the end of the text, and again on every
    later call.  Raises {!Error}. *)

val token_line : t -> int
(** Line of the token {!next} last returned. *)

val token_column : t -> int
(** Column of the token {!next} last returned. *)

(** Recursive-descent parser for the structural HDL.

    Grammar (EBNF):
    {v
    design  ::= module*
    module  ::= "module" IDENT "{" item* "}"
    item    ::= "technology" IDENT ";"
              | "port" IDENT ("in" | "out" | "inout") ";"
              | "net" IDENT ";"
              | "device" IDENT IDENT "(" IDENT ("," IDENT)* ")" ";"
    v} *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse_string : string -> (Ast.design, error) result
(** Parses while lexing: the parser pulls each token from a {!Lexer.t}
    over [text], opening a fresh id space at each [module], and writes
    each module's items as its {!Ast} int stream.  A lexer error
    anywhere in the text wins over a parse error (the lexer runs on to
    the end of the text after a parse error); lexer errors are reported
    in the same [error] type. *)

val parse_file : string -> (Ast.design, error) result
(** I/O failures are reported as an error at 0:0. *)

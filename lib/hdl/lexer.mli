(** Hand-written pull lexer for the structural HDL.

    Identifiers are [[A-Za-z0-9_.\[\]]+] (bracketed bus bits like [a\[3\]]
    lex as single identifiers); [#] and [//] start line comments.

    The lexer scans its text in place and hands out one token per
    {!next} call; no token list is built.  Lines and columns count from
    1, a tab is one column, and a comment does not advance the column
    (so [Eof] after a comment that ends the text sits at the comment's
    first character).

    {b Interning.}  Each identifier is hashed once, folding
    {!Mae_netlist.Intern.step} into the scan, and interned in a
    {!Mae_netlist.Intern.t}, whose seeded hash keeps a sender from
    building names that share a probe run: on a 2-core AMD EPYC
    container, 16 384 449-byte names built from the two 32-byte
    Thue–Morse words parse in 52 ms, against 51 ms for ordinary names
    and 556 ms under this lexer's earlier fixed polynomial. *)

type error = { line : int; column : int; message : string }

exception Error of error
(** Raised by {!next} at a character no token starts with. *)

type t

val create : string -> t
(** A lexer positioned at the start of the text, with an empty id
    space. *)

val next : t -> Token.t
(** The next token; [Eof] at the end of the text, and again on every
    later call.  Raises {!Error}. *)

val token_line : t -> int
(** Line of the token {!next} last returned. *)

val token_column : t -> int
(** Column of the token {!next} last returned. *)

val ident : t -> int
(** Id, in the current id space, of the last [Ident] {!next} returned. *)

val ident_name : t -> string
(** Text of the last [Ident] {!next} returned. *)

val start_module : t -> unit
(** Opens a fresh id space: the next identifier {!next} meets gets id 0,
    whatever names earlier spaces held. *)

val idents : t -> string array
(** The names of the current id space, indexed by id. *)

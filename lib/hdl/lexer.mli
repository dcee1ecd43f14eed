(** Hand-written pull lexer for the structural HDL.

    Identifiers are [[A-Za-z0-9_.\[\]]+] (bracketed bus bits like [a\[3\]]
    lex as single identifiers); [#] and [//] start line comments.

    The lexer scans its text in place and hands out one token per
    {!next} call; no token list is built.  Lines and columns count from
    1, a tab is one column, and a comment does not advance the column
    (so [Eof] after a comment that ends the text sits at the comment's
    first character).

    {b Interning.}  Each identifier is hashed once, here, and interned
    in the current id space: the first identifier of a space gets id 0,
    each new name the next id, and a repeated name its old id.  Only the
    first sight of a name takes a substring of the text.  {!start_module}
    opens a fresh id space, so a module's ids are dense from 0.

    The table is open-addressed with linear probing over a power-of-two
    slot array at most half full; the slot of a name is the low bits of
    {!hash}, and each slot's full hash is compared before any bytes are.
    Interning costs one pass over the name's bytes plus its probe run.
    Worst case: names whose hashes agree in the slot bits share one
    probe run, so [k] of them cost O(k{^ 2}) integer compares in all
    (bytes are compared only where the whole hash agrees).  The hash is
    a fixed polynomial, so such names can be built on purpose: 20 000 of
    them, 46 bytes each, take about 1.1 s to intern on a 2-core Xeon
    container, against about 12 ms for 20 000 ordinary names of that
    length. *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

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

val hash : string -> int
(** The table's hash of a name: [h = h * 0x100000001b3 + byte] over
    every byte, from [h = 0], modulo [2{^ 63}]. *)

(** Tokens of the structural HDL (see {!Parser} for the grammar). *)

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
  | Ident of string
  | Eof

val equal : t -> t -> bool

val to_string : t -> string

val pp : Format.formatter -> t -> unit

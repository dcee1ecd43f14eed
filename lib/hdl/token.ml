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

(* constant constructors are immediates: physical equality is equality *)
let equal (a : t) b = a == b

let to_string = function
  | Module -> "module"
  | Technology -> "technology"
  | Port -> "port"
  | Net -> "net"
  | Device -> "device"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semi -> ";"
  | Ident -> "identifier"
  | Eof -> "<eof>"

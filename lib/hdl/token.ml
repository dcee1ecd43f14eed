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

let equal a b =
  match (a, b) with
  | Ident x, Ident y -> String.equal x y
  | Module, Module
  | Technology, Technology
  | Port, Port
  | Net, Net
  | Device, Device
  | Lbrace, Lbrace
  | Rbrace, Rbrace
  | Lparen, Lparen
  | Rparen, Rparen
  | Comma, Comma
  | Semi, Semi
  | Eof, Eof ->
      true
  | ( ( Module | Technology | Port | Net | Device | Lbrace | Rbrace | Lparen
      | Rparen | Comma | Semi | Ident _ | Eof ),
      _ ) ->
      false

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
  | Ident s -> s
  | Eof -> "<eof>"

let pp ppf t = Format.pp_print_string ppf (to_string t)

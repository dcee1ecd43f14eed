type error = { line : int; column : int; message : string }

let pp_error ppf e = Format.fprintf ppf "%d:%d: %s" e.line e.column e.message

exception Parse_error of error

(* The parser pulls one token at a time: [tok] is the lookahead, at
   [Lexer.token_line lx] / [Lexer.token_column lx]. *)
type state = { lx : Lexer.t; mutable tok : Token.t }

let fail_at line column message = raise (Parse_error { line; column; message })

let fail st message =
  fail_at (Lexer.token_line st.lx) (Lexer.token_column st.lx) message

let advance st = st.tok <- Lexer.next st.lx

let expect st token =
  if Token.equal st.tok token then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string token)
         (Token.to_string st.tok))

let expect_ident st what =
  match st.tok with
  | Token.Ident s -> advance st; s
  | other ->
      fail st
        (Printf.sprintf "expected %s but found %s" what (Token.to_string other))

let parse_direction st =
  let line = Lexer.token_line st.lx and column = Lexer.token_column st.lx in
  let name = expect_ident st "port direction" in
  match Mae_netlist.Port.direction_of_string name with
  | Some d -> d
  | None -> fail_at line column ("invalid port direction " ^ name)

let parse_pins st =
  expect st Token.Lparen;
  let first = expect_ident st "net name" in
  let rec more acc =
    match st.tok with
    | Token.Comma ->
        advance st;
        more (expect_ident st "net name" :: acc)
    | Token.Rparen ->
        advance st;
        List.rev acc
    | other ->
        fail st
          (Printf.sprintf "expected , or ) but found %s" (Token.to_string other))
  in
  more [ first ]

(* An item; the caller has seen that the lookahead is not [}]. *)
let parse_item st : Ast.item =
  match st.tok with
  | Token.Technology ->
      advance st;
      let name = expect_ident st "technology name" in
      expect st Token.Semi;
      Ast.Technology_decl name
  | Token.Port ->
      advance st;
      let name = expect_ident st "port name" in
      let direction = parse_direction st in
      expect st Token.Semi;
      Ast.Port_decl { name; direction }
  | Token.Net ->
      advance st;
      let name = expect_ident st "net name" in
      expect st Token.Semi;
      Ast.Net_decl name
  | Token.Device ->
      advance st;
      let name = expect_ident st "device name" in
      let kind = expect_ident st "device kind" in
      let pins = parse_pins st in
      expect st Token.Semi;
      Ast.Device_decl { name; kind; pins }
  | other ->
      fail st
        (Printf.sprintf "expected an item or } but found %s"
           (Token.to_string other))

let parse_module st : Ast.module_decl =
  expect st Token.Module;
  let name = expect_ident st "module name" in
  expect st Token.Lbrace;
  let rec items acc =
    match st.tok with
    | Token.Rbrace -> List.rev acc
    | _ -> items (parse_item st :: acc)
  in
  let items = items [] in
  expect st Token.Rbrace;
  { Ast.name; items }

(* A lexer error anywhere in the text wins over a parse error: after a
   parse error the rest of the text is still lexed, and the first
   unexpected character there is the answer. *)
let parse_string text =
  let lx = Lexer.create text in
  let lex_error (e : Lexer.error) =
    Error { line = e.line; column = e.column; message = e.message }
  in
  match
    let st = { lx; tok = Lexer.next lx } in
    let rec modules acc =
      match st.tok with
      | Token.Eof -> List.rev acc
      | Token.Module -> modules (parse_module st :: acc)
      | other ->
          fail st
            (Printf.sprintf "expected module but found %s"
               (Token.to_string other))
    in
    modules []
  with
  | design -> Ok design
  | exception Lexer.Error e -> lex_error e
  | exception Parse_error e -> (
      let rec drain () =
        match Lexer.next lx with Token.Eof -> () | _ -> drain ()
      in
      match drain () with
      | () -> Error e
      | exception Lexer.Error e -> lex_error e)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_string text
  | exception Sys_error msg -> Error { line = 0; column = 0; message = msg }

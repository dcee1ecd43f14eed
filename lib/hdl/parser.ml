type error = { line : int; column : int; message : string }

let pp_error ppf e = Format.fprintf ppf "%d:%d: %s" e.line e.column e.message

exception Parse_error of error

(* The parser pulls one token at a time: [tok] is the lookahead, at
   [Lexer.token_line lx] / [Lexer.token_column lx].  The current
   module's item stream grows in [items.(0 .. len - 1)]. *)
type state = {
  lx : Lexer.t;
  mutable tok : Token.t;
  mutable items : int array;
  mutable len : int;
}

let fail_at line column message = raise (Parse_error { line; column; message })

let fail st message =
  fail_at (Lexer.token_line st.lx) (Lexer.token_column st.lx) message

let advance st = st.tok <- Lexer.next st.lx

(* The lookahead as an error message shows it. *)
let found st =
  match st.tok with
  | Token.Ident -> Lexer.ident_name st.lx
  | tok -> Token.to_string tok

let expect st token =
  if Token.equal st.tok token then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string token)
         (found st))

let expect_ident st what =
  match st.tok with
  | Token.Ident ->
      let id = Lexer.ident st.lx in
      advance st;
      id
  | _ -> fail st (Printf.sprintf "expected %s but found %s" what (found st))

(* An identifier's text, for the two places that need it as a string. *)
let expect_name st what =
  match st.tok with
  | Token.Ident ->
      let name = Lexer.ident_name st.lx in
      advance st;
      name
  | _ -> fail st (Printf.sprintf "expected %s but found %s" what (found st))

let emit st x =
  if st.len = Array.length st.items then begin
    let items = Array.make (2 * st.len) 0 in
    Array.blit st.items 0 items 0 st.len;
    st.items <- items
  end;
  st.items.(st.len) <- x;
  st.len <- st.len + 1

let parse_direction st =
  let line = Lexer.token_line st.lx and column = Lexer.token_column st.lx in
  let name = expect_name st "port direction" in
  match Mae_netlist.Port.direction_of_string name with
  | Some d -> Ast.direction_code d
  | None -> fail_at line column ("invalid port direction " ^ name)

(* The pins of a device item; the pin count goes in the slot at
   [count_at]. *)
let parse_pins st ~count_at =
  expect st Token.Lparen;
  emit st (expect_ident st "net name");
  let rec more () =
    match st.tok with
    | Token.Comma ->
        advance st;
        emit st (expect_ident st "net name");
        more ()
    | Token.Rparen -> advance st
    | _ -> fail st (Printf.sprintf "expected , or ) but found %s" (found st))
  in
  more ();
  st.items.(count_at) <- st.len - count_at - 1

(* An item; the caller has seen that the lookahead is not [}]. *)
let parse_item st =
  match st.tok with
  | Token.Technology ->
      advance st;
      emit st Ast.tag_technology;
      emit st (expect_ident st "technology name");
      expect st Token.Semi
  | Token.Port ->
      advance st;
      emit st Ast.tag_port;
      emit st (expect_ident st "port name");
      emit st (parse_direction st);
      expect st Token.Semi
  | Token.Net ->
      advance st;
      emit st Ast.tag_net;
      emit st (expect_ident st "net name");
      expect st Token.Semi
  | Token.Device ->
      advance st;
      emit st Ast.tag_device;
      emit st (expect_ident st "device name");
      emit st (expect_ident st "device kind");
      let count_at = st.len in
      emit st 0;
      parse_pins st ~count_at;
      expect st Token.Semi
  | _ ->
      fail st (Printf.sprintf "expected an item or } but found %s" (found st))

(* A module; the caller has seen that the lookahead is [module].  Its
   identifiers are interned in a fresh id space, read off before the
   token after [}] is lexed. *)
let parse_module st : Ast.module_decl =
  Lexer.start_module st.lx;
  advance st;
  let name = expect_name st "module name" in
  expect st Token.Lbrace;
  st.len <- 0;
  while not (Token.equal st.tok Token.Rbrace) do
    parse_item st
  done;
  let idents = Lexer.idents st.lx and items = Array.sub st.items 0 st.len in
  advance st;
  { Ast.name; idents; items }

(* A lexer error anywhere in the text wins over a parse error: after a
   parse error the rest of the text is still lexed, and the first
   unexpected character there is the answer. *)
let parse_string text =
  let lx = Lexer.create text in
  let lex_error (e : Lexer.error) =
    Error { line = e.line; column = e.column; message = e.message }
  in
  match
    (* a module's stream holds about one int per 10 bytes of its text *)
    let items = Array.make (max 256 (min 16384 (String.length text / 8))) 0 in
    let st = { lx; tok = Lexer.next lx; items; len = 0 } in
    let rec modules acc =
      match st.tok with
      | Token.Eof -> List.rev acc
      | Token.Module -> modules (parse_module st :: acc)
      | _ -> fail st (Printf.sprintf "expected module but found %s" (found st))
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

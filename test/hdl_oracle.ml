(* Reference implementations of the HDL front end, kept as test oracles.

   The list-based front end: [tokenize] builds the whole token list, then
   [parse_tokens] walks it.  The pull parser (Mae_hdl.Parser.parse_string)
   must give the same design, or the same error (line, column,
   message). *)

open Mae_hdl

type located = { token : Token.t; line : int; column : int }

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '[' || c = ']'

let keyword_or_ident s =
  match s with
  | "module" -> Token.Module
  | "technology" -> Token.Technology
  | "port" -> Token.Port
  | "net" -> Token.Net
  | "device" -> Token.Device
  | _ -> Token.Ident s

let tokenize text : (located list, Lexer.error) result =
  let len = String.length text in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let emit token = tokens := { token; line = !line; column = !col } :: !tokens in
  let rec skip_line i =
    if i < len && text.[i] <> '\n' then skip_line (i + 1) else i
  in
  let rec go i =
    if i >= len then Ok ()
    else begin
      let c = text.[i] in
      match c with
      | '\n' ->
          incr line;
          col := 1;
          go (i + 1)
      | ' ' | '\t' | '\r' ->
          incr col;
          go (i + 1)
      | '#' -> go (skip_line i)
      | '/' when i + 1 < len && text.[i + 1] = '/' -> go (skip_line i)
      | '{' -> emit Token.Lbrace; incr col; go (i + 1)
      | '}' -> emit Token.Rbrace; incr col; go (i + 1)
      | '(' -> emit Token.Lparen; incr col; go (i + 1)
      | ')' -> emit Token.Rparen; incr col; go (i + 1)
      | ',' -> emit Token.Comma; incr col; go (i + 1)
      | ';' -> emit Token.Semi; incr col; go (i + 1)
      | c when is_ident_char c ->
          let j = ref i in
          while !j < len && is_ident_char text.[!j] do incr j done;
          let word = String.sub text i (!j - i) in
          emit (keyword_or_ident word);
          col := !col + (!j - i);
          go !j
      | c ->
          Error
            {
              Lexer.line = !line;
              column = !col;
              message = Printf.sprintf "unexpected character %C" c;
            }
    end
  in
  match go 0 with
  | Error e -> Error e
  | Ok () ->
      emit Token.Eof;
      Ok (List.rev !tokens)

exception Parse_error of Parser.error

type state = { mutable tokens : located list }

let fail (tok : located) message =
  raise (Parse_error { line = tok.line; column = tok.column; message })

let peek st =
  match st.tokens with
  | t :: _ -> t
  | [] -> { token = Token.Eof; line = 0; column = 0 }

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token =
  let t = peek st in
  if Token.equal t.token token then advance st
  else
    fail t
      (Printf.sprintf "expected %s but found %s" (Token.to_string token)
         (Token.to_string t.token))

let expect_ident st what =
  let t = peek st in
  match t.token with
  | Token.Ident s -> advance st; s
  | other ->
      fail t
        (Printf.sprintf "expected %s but found %s" what (Token.to_string other))

let parse_direction st =
  let t = peek st in
  let name = expect_ident st "port direction" in
  match Mae_netlist.Port.direction_of_string name with
  | Some d -> d
  | None -> fail t ("invalid port direction " ^ name)

let parse_pins st =
  expect st Token.Lparen;
  let first = expect_ident st "net name" in
  let rec more acc =
    let t = peek st in
    match t.token with
    | Token.Comma ->
        advance st;
        more (expect_ident st "net name" :: acc)
    | Token.Rparen ->
        advance st;
        List.rev acc
    | other ->
        fail t
          (Printf.sprintf "expected , or ) but found %s" (Token.to_string other))
  in
  more [ first ]

let parse_item st : Ast.item option =
  let t = peek st in
  match t.token with
  | Token.Technology ->
      advance st;
      let name = expect_ident st "technology name" in
      expect st Token.Semi;
      Some (Ast.Technology_decl name)
  | Token.Port ->
      advance st;
      let name = expect_ident st "port name" in
      let direction = parse_direction st in
      expect st Token.Semi;
      Some (Ast.Port_decl { name; direction })
  | Token.Net ->
      advance st;
      let name = expect_ident st "net name" in
      expect st Token.Semi;
      Some (Ast.Net_decl name)
  | Token.Device ->
      advance st;
      let name = expect_ident st "device name" in
      let kind = expect_ident st "device kind" in
      let pins = parse_pins st in
      expect st Token.Semi;
      Some (Ast.Device_decl { name; kind; pins })
  | Token.Rbrace -> None
  | other ->
      fail t
        (Printf.sprintf "expected an item or } but found %s"
           (Token.to_string other))

let parse_module st : Ast.module_decl =
  expect st Token.Module;
  let name = expect_ident st "module name" in
  expect st Token.Lbrace;
  let rec items acc =
    match parse_item st with
    | Some item -> items (item :: acc)
    | None -> List.rev acc
  in
  let items = items [] in
  expect st Token.Rbrace;
  { Ast.name; items }

let parse_tokens tokens : (Ast.design, Parser.error) result =
  let st = { tokens } in
  let rec modules acc =
    let t = peek st in
    match t.token with
    | Token.Eof -> List.rev acc
    | Token.Module -> modules (parse_module st :: acc)
    | other ->
        fail t
          (Printf.sprintf "expected module but found %s" (Token.to_string other))
  in
  try Ok (modules []) with Parse_error e -> Error e

let parse_string text : (Ast.design, Parser.error) result =
  match tokenize text with
  | Error e -> Error { line = e.line; column = e.column; message = e.message }
  | Ok tokens -> parse_tokens tokens

exception Flatten_error of Elaborate.error

(* The hierarchical flatten that looks each instance's module up with
   [List.find_opt], recomputes its port list and checks recursion with
   [List.mem] over the instance stack: the reference for
   Elaborate.flatten, same circuit or the same error. *)
let flatten ?default_technology design ~top =
  let module_of name =
    List.find_opt (fun (m : Ast.module_decl) -> String.equal m.name name) design
  in
  match module_of top with
  | None -> Error (Elaborate.Module_not_found top)
  | Some top_module -> begin
      let technology =
        match Ast.technology top_module with
        | Some t -> Some t
        | None -> default_technology
      in
      match technology with
      | None -> Error (Elaborate.No_technology { module_name = top })
      | Some technology -> begin
          let builder = Mae_netlist.Builder.create ~name:top ~technology in
          let ports_of (m : Ast.module_decl) =
            List.filter_map
              (function
                | Ast.Port_decl { name; _ } -> Some name
                | Ast.Technology_decl _ | Ast.Net_decl _ | Ast.Device_decl _ ->
                    None)
              m.items
          in
          let fail e = raise (Flatten_error e) in
          let rec instantiate ~prefix ~bindings ~stack (m : Ast.module_decl) =
            if List.mem m.Ast.name stack then fail (Elaborate.Recursive_module m.Ast.name);
            let resolve net =
              match List.assoc_opt net bindings with
              | Some outer -> outer
              | None -> prefix ^ net
            in
            List.iter
              (fun item ->
                match item with
                | Ast.Technology_decl _ -> ()
                | Ast.Net_decl n -> ignore (Mae_netlist.Builder.net builder (resolve n))
                | Ast.Port_decl { name; direction } ->
                    if String.equal prefix "" then
                      (* only the top module's ports survive flattening *)
                      (try
                         Mae_netlist.Builder.add_port builder ~name ~direction
                           ~net:(resolve name)
                       with Invalid_argument _ ->
                         fail
                           (Elaborate.Duplicate_name
                              { module_name = m.Ast.name; what = "port"; name }))
                    else ignore (Mae_netlist.Builder.net builder (resolve name))
                | Ast.Device_decl { name; kind; pins } -> begin
                    match module_of kind with
                    | Some child ->
                        let child_ports = ports_of child in
                        if List.length child_ports <> List.length pins then
                          fail
                            (Elaborate.Port_arity
                               {
                                 module_name = m.Ast.name;
                                 instance = prefix ^ name;
                                 expected = List.length child_ports;
                                 got = List.length pins;
                               });
                        let child_bindings =
                          List.map2
                            (fun port pin -> (port, resolve pin))
                            child_ports pins
                        in
                        instantiate
                          ~prefix:(prefix ^ name ^ ".")
                          ~bindings:child_bindings
                          ~stack:(m.Ast.name :: stack)
                          child
                    | None -> begin
                        try
                          ignore
                            (Mae_netlist.Builder.add_device builder
                               ~name:(prefix ^ name) ~kind
                               ~nets:(List.map resolve pins))
                        with Invalid_argument _ ->
                          fail
                            (Elaborate.Duplicate_name
                               { module_name = m.Ast.name; what = "device"; name })
                      end
                  end)
              m.Ast.items
          in
          match instantiate ~prefix:"" ~bindings:[] ~stack:[] top_module with
          | () -> Ok (Mae_netlist.Builder.build builder)
          | exception Flatten_error e -> Error e
        end
    end

(* Reference implementations of the HDL front end, kept as test oracles.

   The list-based front end over a list-of-items syntax tree: [tokenize]
   builds the whole token list (each identifier a string), [parse_tokens]
   walks it into [design], and [design_to_circuits] elaborates each
   module through Mae_netlist.Builder, hashing every name it meets.  The
   interning front end (Mae_hdl.Parser.parse_string, whose id-form
   modules [of_design] reads back into this tree, and
   Mae_hdl.Elaborate) must give the same design and the same circuits,
   or the same error (line, column, message). *)

open Mae_hdl

type token =
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

let token_to_string = function
  | Ident s -> s
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
  | Eof -> "<eof>"

type item =
  | Technology_decl of string
  | Port_decl of { name : string; direction : Mae_netlist.Port.direction }
  | Net_decl of string
  | Device_decl of { name : string; kind : string; pins : string list }

type module_decl = { name : string; items : item list }

type design = module_decl list

(* The last [technology] item, if any. *)
let technology m =
  List.fold_left
    (fun acc item ->
      match item with
      | Technology_decl t -> Some t
      | Port_decl _ | Net_decl _ | Device_decl _ -> acc)
    None m.items

let pp_item ppf = function
  | Technology_decl t -> Format.fprintf ppf "technology %s;" t
  | Port_decl { name; direction } ->
      Format.fprintf ppf "port %s %s;" name
        (Mae_netlist.Port.direction_to_string direction)
  | Net_decl n -> Format.fprintf ppf "net %s;" n
  | Device_decl { name; kind; pins } ->
      Format.fprintf ppf "device %s %s (%s);" name kind (String.concat ", " pins)

let pp_module ppf m =
  Format.fprintf ppf "@[<v 2>module %s {@ %a@]@ }" m.name
    (Format.pp_print_list pp_item)
    m.items

let to_text design =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_module) design)

(* An id-form module read back into the list-of-items tree. *)
let of_module (m : Ast.module_decl) =
  let id k = m.idents.(m.items.(k)) in
  let rec items k =
    if k >= Array.length m.items then []
    else
      let tag = m.items.(k) in
      if tag = Ast.tag_technology then Technology_decl (id (k + 1)) :: items (k + 2)
      else if tag = Ast.tag_port then
        Port_decl
          { name = id (k + 1); direction = Ast.direction_of_code m.items.(k + 2) }
        :: items (k + 3)
      else if tag = Ast.tag_net then Net_decl (id (k + 1)) :: items (k + 2)
      else if tag = Ast.tag_device then
        let count = m.items.(k + 3) in
        Device_decl
          {
            name = id (k + 1);
            kind = id (k + 2);
            pins = List.init count (fun p -> id (k + 4 + p));
          }
        :: items (k + 4 + count)
      else invalid_arg (Printf.sprintf "Hdl_oracle.of_module: tag %d" tag)
  in
  { name = m.name; items = items 0 }

let of_design (d : Ast.design) = List.map of_module d

type located = { token : token; line : int; column : int }

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '[' || c = ']'

let keyword_or_ident s =
  match s with
  | "module" -> Module
  | "technology" -> Technology
  | "port" -> Port
  | "net" -> Net
  | "device" -> Device
  | _ -> Ident s

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
      | '{' -> emit Lbrace; incr col; go (i + 1)
      | '}' -> emit Rbrace; incr col; go (i + 1)
      | '(' -> emit Lparen; incr col; go (i + 1)
      | ')' -> emit Rparen; incr col; go (i + 1)
      | ',' -> emit Comma; incr col; go (i + 1)
      | ';' -> emit Semi; incr col; go (i + 1)
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
      emit Eof;
      Ok (List.rev !tokens)

exception Parse_error of Parser.error

type state = { mutable tokens : located list }

let fail (tok : located) message =
  raise (Parse_error { line = tok.line; column = tok.column; message })

let peek st =
  match st.tokens with
  | t :: _ -> t
  | [] -> { token = Eof; line = 0; column = 0 }

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token =
  let t = peek st in
  if t.token = token then advance st
  else
    fail t
      (Printf.sprintf "expected %s but found %s" (token_to_string token)
         (token_to_string t.token))

let expect_ident st what =
  let t = peek st in
  match t.token with
  | Ident s -> advance st; s
  | other ->
      fail t
        (Printf.sprintf "expected %s but found %s" what (token_to_string other))

let parse_direction st =
  let t = peek st in
  let name = expect_ident st "port direction" in
  match Mae_netlist.Port.direction_of_string name with
  | Some d -> d
  | None -> fail t ("invalid port direction " ^ name)

let parse_pins st =
  expect st Lparen;
  let first = expect_ident st "net name" in
  let rec more acc =
    let t = peek st in
    match t.token with
    | Comma ->
        advance st;
        more (expect_ident st "net name" :: acc)
    | Rparen ->
        advance st;
        List.rev acc
    | other ->
        fail t
          (Printf.sprintf "expected , or ) but found %s" (token_to_string other))
  in
  more [ first ]

let parse_item st : item option =
  let t = peek st in
  match t.token with
  | Technology ->
      advance st;
      let name = expect_ident st "technology name" in
      expect st Semi;
      Some (Technology_decl name)
  | Port ->
      advance st;
      let name = expect_ident st "port name" in
      let direction = parse_direction st in
      expect st Semi;
      Some (Port_decl { name; direction })
  | Net ->
      advance st;
      let name = expect_ident st "net name" in
      expect st Semi;
      Some (Net_decl name)
  | Device ->
      advance st;
      let name = expect_ident st "device name" in
      let kind = expect_ident st "device kind" in
      let pins = parse_pins st in
      expect st Semi;
      Some (Device_decl { name; kind; pins })
  | Rbrace -> None
  | other ->
      fail t
        (Printf.sprintf "expected an item or } but found %s"
           (token_to_string other))

let parse_module st : module_decl =
  expect st Module;
  let name = expect_ident st "module name" in
  expect st Lbrace;
  let rec items acc =
    match parse_item st with
    | Some item -> items (item :: acc)
    | None -> List.rev acc
  in
  let items = items [] in
  expect st Rbrace;
  { name; items }

let parse_tokens tokens : (design, Parser.error) result =
  let st = { tokens } in
  let rec modules acc =
    let t = peek st in
    match t.token with
    | Eof -> List.rev acc
    | Module -> modules (parse_module st :: acc)
    | other ->
        fail t
          (Printf.sprintf "expected module but found %s" (token_to_string other))
  in
  try Ok (modules []) with Parse_error e -> Error e

let parse_string text : (design, Parser.error) result =
  match tokenize text with
  | Error e -> Error { line = e.line; column = e.column; message = e.message }
  | Ok tokens -> parse_tokens tokens

(* Elaboration through Mae_netlist.Builder, one string hash per name
   reference: the reference for Elaborate.module_to_circuit. *)
let module_to_circuit ?default_technology (m : module_decl) =
  let technology =
    match technology m with Some t -> Some t | None -> default_technology
  in
  match technology with
  | None -> Error (Elaborate.No_technology { module_name = m.name })
  | Some technology -> begin
      let builder = Mae_netlist.Builder.create ~name:m.name ~technology in
      let elaborate_item = function
        | Technology_decl _ -> Ok ()
        | Net_decl name ->
            ignore (Mae_netlist.Builder.net builder name);
            Ok ()
        | Port_decl { name; direction } -> begin
            (* The port's net shares the port's name. *)
            try
              Mae_netlist.Builder.add_port builder ~name ~direction ~net:name;
              Ok ()
            with Invalid_argument _ ->
              Error
                (Elaborate.Duplicate_name
                   { module_name = m.name; what = "port"; name })
          end
        | Device_decl { name; kind; pins } -> begin
            try
              ignore (Mae_netlist.Builder.add_device builder ~name ~kind ~nets:pins);
              Ok ()
            with Invalid_argument _ ->
              Error
                (Elaborate.Duplicate_name
                   { module_name = m.name; what = "device"; name })
          end
      in
      let rec go = function
        | [] -> Ok (Mae_netlist.Builder.build builder)
        | item :: rest -> begin
            match elaborate_item item with
            | Ok () -> go rest
            | Error e -> Error e
          end
      in
      go m.items
    end

let design_to_circuits ?default_technology design =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | m :: rest -> begin
        match module_to_circuit ?default_technology m with
        | Ok c -> go (c :: acc) rest
        | Error e -> Error e
      end
  in
  go [] design

let find_module ?default_technology design ~name =
  match List.find_opt (fun (m : module_decl) -> String.equal m.name name) design with
  | Some m -> module_to_circuit ?default_technology m
  | None -> Error (Elaborate.Module_not_found name)

(* Text to circuits, or the first error: a parse error, else the first
   module's elaboration error. *)
type front_end_error =
  | Parse of Parser.error
  | Elaborate of Elaborate.error

let front_end ?default_technology text =
  match parse_string text with
  | Error e -> Error (Parse e)
  | Ok design ->
      Result.map_error
        (fun e -> Elaborate e)
        (design_to_circuits ?default_technology design)

exception Flatten_error of Elaborate.error

(* The hierarchical flatten that looks each instance's module up with
   [List.find_opt], recomputes its port list and checks recursion with
   [List.mem] over the instance stack: the reference for
   Elaborate.flatten, same circuit or the same error. *)
let flatten ?default_technology design ~top =
  let module_of name =
    List.find_opt (fun (m : module_decl) -> String.equal m.name name) design
  in
  match module_of top with
  | None -> Error (Elaborate.Module_not_found top)
  | Some top_module -> begin
      let technology =
        match technology top_module with
        | Some t -> Some t
        | None -> default_technology
      in
      match technology with
      | None -> Error (Elaborate.No_technology { module_name = top })
      | Some technology -> begin
          let builder = Mae_netlist.Builder.create ~name:top ~technology in
          let ports_of (m : module_decl) =
            List.filter_map
              (function
                | Port_decl { name; _ } -> Some name
                | Technology_decl _ | Net_decl _ | Device_decl _ ->
                    None)
              m.items
          in
          let fail e = raise (Flatten_error e) in
          let rec instantiate ~prefix ~bindings ~stack (m : module_decl) =
            if List.mem m.name stack then fail (Elaborate.Recursive_module m.name);
            let resolve net =
              match List.assoc_opt net bindings with
              | Some outer -> outer
              | None -> prefix ^ net
            in
            List.iter
              (fun item ->
                match item with
                | Technology_decl _ -> ()
                | Net_decl n -> ignore (Mae_netlist.Builder.net builder (resolve n))
                | Port_decl { name; direction } ->
                    if String.equal prefix "" then
                      (* only the top module's ports survive flattening *)
                      (try
                         Mae_netlist.Builder.add_port builder ~name ~direction
                           ~net:(resolve name)
                       with Invalid_argument _ ->
                         fail
                           (Elaborate.Duplicate_name
                              { module_name = m.name; what = "port"; name }))
                    else ignore (Mae_netlist.Builder.net builder (resolve name))
                | Device_decl { name; kind; pins } -> begin
                    match module_of kind with
                    | Some child ->
                        let child_ports = ports_of child in
                        if List.length child_ports <> List.length pins then
                          fail
                            (Elaborate.Port_arity
                               {
                                 module_name = m.name;
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
                          ~stack:(m.name :: stack)
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
                               { module_name = m.name; what = "device"; name })
                      end
                  end)
              m.items
          in
          match instantiate ~prefix:"" ~bindings:[] ~stack:[] top_module with
          | () -> Ok (Mae_netlist.Builder.build builder)
          | exception Flatten_error e -> Error e
        end
    end

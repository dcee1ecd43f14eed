open Mae_hdl
module S = Mae_test_support.Support
module O = Mae_test_support.Hdl_oracle

let sample =
  {|
  module half_adder {
    technology nmos25;
    port a in; port b in;
    port s out; port c out;
    device x1 xor2 (a, b, s);
    device a1 nand2 (a, b, cn);
    device i1 inv (cn, c);
    net cn;
  }
|}

(* Lexer *)

(* A token with its text, as the list lexer of the oracle spells it. *)
let spelled lx : Token.t -> O.token = function
  | Token.Ident -> O.Ident (Lexer.ident_name lx)
  | Token.Module -> O.Module
  | Token.Technology -> O.Technology
  | Token.Port -> O.Port
  | Token.Net -> O.Net
  | Token.Device -> O.Device
  | Token.Lbrace -> O.Lbrace
  | Token.Rbrace -> O.Rbrace
  | Token.Lparen -> O.Lparen
  | Token.Rparen -> O.Rparen
  | Token.Comma -> O.Comma
  | Token.Semi -> O.Semi
  | Token.Eof -> O.Eof

(* Every token of [text] with its line and column, through Eof. *)
let lex text =
  let lx = Lexer.create text in
  let rec go acc =
    let tok = Lexer.next lx in
    let acc = (spelled lx tok, Lexer.token_line lx, Lexer.token_column lx) :: acc in
    match tok with Token.Eof -> List.rev acc | _ -> go acc
  in
  match go [] with tokens -> Ok tokens | exception Lexer.Error e -> Error e

let test_lexer_tokens () =
  match lex "module m { port a in; }" with
  | Error e -> Alcotest.failf "lex error: %s" e.message
  | Ok tokens ->
      let kinds = List.map (fun (t, _, _) -> t) tokens in
      Alcotest.(check bool) "tokens" true
        (kinds
        = [ O.Module; O.Ident "m"; O.Lbrace; O.Port; O.Ident "a";
            O.Ident "in"; O.Semi; O.Rbrace; O.Eof ])

let test_lexer_comments () =
  match lex "# all\n// comment\nmodule" with
  | Error e -> Alcotest.failf "lex error: %s" e.message
  | Ok tokens -> Alcotest.(check int) "module + eof" 2 (List.length tokens)

let test_lexer_positions () =
  match lex "module\n  m" with
  | Error _ -> Alcotest.fail "lex error"
  | Ok [ (_, m_line, _); (_, ident_line, ident_column); _eof ] ->
      Alcotest.(check int) "line 1" 1 m_line;
      Alcotest.(check int) "line 2" 2 ident_line;
      Alcotest.(check int) "col 3" 3 ident_column
  | Ok _ -> Alcotest.fail "unexpected token count"

let test_lexer_error () =
  match lex "module $" with
  | Error e -> Alcotest.(check int) "line" 1 e.line
  | Ok _ -> Alcotest.fail "expected lex error"

let test_lexer_bus_bits () =
  match lex "a[3] b.c" with
  | Ok [ (a, _, _); (b, _, _); _eof ] ->
      Alcotest.(check bool) "bracketed ident" true (a = O.Ident "a[3]");
      Alcotest.(check bool) "dotted ident" true (b = O.Ident "b.c")
  | Ok _ | Error _ -> Alcotest.fail "expected two idents"

(* Parser *)

let test_parse_sample () =
  match Parser.parse_string sample with
  | Error e -> Alcotest.failf "parse error: %d:%d %s" e.line e.column e.message
  | Ok [ m ] ->
      let m = O.of_module m in
      Alcotest.(check string) "name" "half_adder" m.O.name;
      Alcotest.(check bool) "technology" true
        (O.technology m = Some "nmos25");
      let devices =
        List.filter
          (function O.Device_decl _ -> true | _ -> false)
          m.O.items
      in
      Alcotest.(check int) "devices" 3 (List.length devices)
  | Ok _ -> Alcotest.fail "expected one module"

let test_parse_errors () =
  let expect_error text =
    match Parser.parse_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "module { }";
  expect_error "module m { port a sideways; }";
  expect_error "module m { device d inv (); }";
  expect_error "module m { device d inv (a,); }";
  expect_error "module m { port a in }";
  expect_error "module m { ";
  expect_error "port a in;"

let test_parse_multiple_modules () =
  let text = "module a { port p in; } module b { port q out; }" in
  match Parser.parse_string text with
  | Ok ms -> Alcotest.(check int) "two modules" 2 (List.length ms)
  | Error _ -> Alcotest.fail "parse failed"

(* Elaborate *)

let elaborated () =
  match Parser.parse_string sample with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok design -> begin
      match Elaborate.design_to_circuits design with
      | Ok [ c ] -> c
      | Ok _ -> Alcotest.fail "expected one circuit"
      | Error e ->
          Alcotest.failf "elaborate: %s"
            (Format.asprintf "%a" Elaborate.pp_error e)
    end

let test_elaborate_sample () =
  let c = elaborated () in
  Alcotest.(check int) "devices" 3 (Mae_netlist.Circuit.device_count c);
  Alcotest.(check int) "ports" 4 (Mae_netlist.Circuit.port_count c);
  (* nets: a b s c cn *)
  Alcotest.(check int) "nets" 5 (Mae_netlist.Circuit.net_count c);
  let cn = Option.get (Mae_netlist.Circuit.find_net c "cn") in
  Alcotest.(check int) "cn degree" 2
    (Mae_netlist.Circuit.degree c cn.Mae_netlist.Net.index)

let test_elaborate_no_technology () =
  match Parser.parse_string "module m { port a in; }" with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok design -> begin
      match Elaborate.design_to_circuits design with
      | Error (Elaborate.No_technology _) -> ()
      | Error _ | Ok _ -> Alcotest.fail "expected No_technology";
    end;
    begin
      match
        Parser.parse_string "module m { port a in; }"
        |> Result.get_ok
        |> Elaborate.design_to_circuits ~default_technology:"cmos20"
      with
      | Ok [ c ] ->
          Alcotest.(check string) "default applied" "cmos20"
            c.Mae_netlist.Circuit.technology
      | Ok _ | Error _ -> Alcotest.fail "expected default technology"
    end

let test_elaborate_duplicate () =
  let text = "module m { technology t; port a in; port a in; }" in
  match Parser.parse_string text |> Result.get_ok |> Elaborate.design_to_circuits with
  | Error (Elaborate.Duplicate_name { what = "port"; _ }) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected duplicate port error"

let test_find_module () =
  let design = Parser.parse_string sample |> Result.get_ok in
  begin
    match Elaborate.find_module design ~name:"half_adder" with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "should find half_adder"
  end;
  match Elaborate.find_module design ~name:"zzz" with
  | Error (Elaborate.Module_not_found "zzz") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Module_not_found"

(* Printer round-trip *)

let circuits_isomorphic (a : Mae_netlist.Circuit.t) (b : Mae_netlist.Circuit.t) =
  Mae_netlist.Circuit.device_count a = Mae_netlist.Circuit.device_count b
  && Mae_netlist.Circuit.net_count a = Mae_netlist.Circuit.net_count b
  && Mae_netlist.Circuit.port_count a = Mae_netlist.Circuit.port_count b
  && Array.for_all
       (fun (d : Mae_netlist.Device.t) ->
         match Mae_netlist.Circuit.find_device b d.name with
         | None -> false
         | Some d' ->
             String.equal d.kind d'.Mae_netlist.Device.kind
             && List.equal String.equal
                  (List.map (fun i -> a.Mae_netlist.Circuit.nets.(i).Mae_netlist.Net.name)
                     (Array.to_list d.pins))
                  (List.map (fun i -> b.Mae_netlist.Circuit.nets.(i).Mae_netlist.Net.name)
                     (Array.to_list d'.Mae_netlist.Device.pins)))
       a.Mae_netlist.Circuit.devices

let test_printer_roundtrip () =
  List.iter
    (fun circuit ->
      let text = Printer.to_string circuit in
      match Parser.parse_string text with
      | Error e -> Alcotest.failf "re-parse failed: %s" e.message
      | Ok design -> begin
          match Elaborate.design_to_circuits design with
          | Ok [ c' ] ->
              Alcotest.(check bool)
                ("round trip " ^ circuit.Mae_netlist.Circuit.name)
                true (circuits_isomorphic circuit c')
          | Ok _ | Error _ -> Alcotest.fail "re-elaboration failed"
        end)
    [ S.full_adder; S.tiny (); S.counter8 ]

(* SPICE *)

let spice_sample =
  {|* a tiny subcircuit
* technology: nmos25
.subckt inverter in out
Mpd out in gnd gnd nenh
Mpu vdd out out
+ vdd ndep
.ends
.subckt pair a b
Xi1 a m inverter
Xi2 m b inverter
.ends pair
.end
|}

let test_spice_parse () =
  match Spice.parse_string spice_sample with
  | Error e -> Alcotest.failf "spice error: line %d: %s" e.line e.message
  | Ok [ inv; pair ] ->
      Alcotest.(check string) "name" "inverter" inv.Mae_netlist.Circuit.name;
      Alcotest.(check string) "technology" "nmos25"
        inv.Mae_netlist.Circuit.technology;
      Alcotest.(check int) "transistors" 2
        (Mae_netlist.Circuit.device_count inv);
      (* bulk node dropped: Mpd pins are out, in, gnd *)
      let mpd = Option.get (Mae_netlist.Circuit.find_device inv "Mpd") in
      Alcotest.(check int) "3 pins" 3 (Array.length mpd.Mae_netlist.Device.pins);
      Alcotest.(check int) "pair devices" 2
        (Mae_netlist.Circuit.device_count pair);
      let x1 = Option.get (Mae_netlist.Circuit.find_device pair "Xi1") in
      Alcotest.(check string) "instance kind" "inverter"
        x1.Mae_netlist.Device.kind
  | Ok l -> Alcotest.failf "expected 2 circuits, got %d" (List.length l)

let test_spice_errors () =
  let expect_error text =
    match Spice.parse_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected spice error for %S" text
  in
  expect_error ".ends\n";
  expect_error ".subckt a p\nM1 a b nenh\n.ends\n";  (* malformed MOS card *)
  expect_error "M1 a b c d nenh\n";  (* outside subckt *)
  expect_error ".subckt a p\n";  (* unterminated *)
  expect_error "+ continuation first\n"

(* Hierarchical flattening *)

let hierarchical_design =
  {|
  module half_add {
    port a in; port b in; port s out; port c out;
    device x xor2 (a, b, s);
    device n nand2 (a, b, cn);
    device i inv (cn, c);
  }
  module full_add {
    port a in; port b in; port cin in; port s out; port cout out;
    device h1 half_add (a, b, t, c1);
    device h2 half_add (t, cin, s, c2);
    device o nor2 (c1, c2, cout_n);
    device i3 inv (cout_n, cout);
  }
  module adder2 {
    technology nmos25;
    port a0 in; port a1 in; port b0 in; port b1 in; port ci in;
    port s0 out; port s1 out; port co out;
    device f0 full_add (a0, b0, ci, s0, k);
    device f1 full_add (a1, b1, k, s1, co);
  }
|}

let test_flatten_hierarchy () =
  let design = Parser.parse_string hierarchical_design |> Result.get_ok in
  match Elaborate.flatten design ~top:"adder2" with
  | Error e -> Alcotest.failf "flatten: %s" (Format.asprintf "%a" Elaborate.pp_error e)
  | Ok c ->
      (* each full_add = 2 half_add (3 devices each) + 2 leaf devices = 8;
         2 instances -> 16 devices *)
      Alcotest.(check int) "devices" 16 (Mae_netlist.Circuit.device_count c);
      Alcotest.(check int) "only top ports" 8 (Mae_netlist.Circuit.port_count c);
      Alcotest.(check string) "technology" "nmos25"
        c.Mae_netlist.Circuit.technology;
      (* the internal carry k connects the two adder slices *)
      let k = Option.get (Mae_netlist.Circuit.find_net c "k") in
      (* f0's cout driver plus the two half-add gates reading f1's cin *)
      Alcotest.(check int) "carry net crosses instances" 3
        (Mae_netlist.Circuit.degree c k.Mae_netlist.Net.index);
      (* hierarchical names *)
      Alcotest.(check bool) "nested instance name" true
        (Mae_netlist.Circuit.find_device c "f0.h1.x" <> None);
      (* it is a real estimable circuit *)
      let est = Mae.Stdcell.estimate ~rows:2 c Mae_test_support.Support.nmos in
      Alcotest.(check bool) "estimable" true (est.Mae.Estimate.area > 0.)

let test_flatten_functional () =
  (* the flattened 2-bit adder actually adds *)
  let design = Parser.parse_string hierarchical_design |> Result.get_ok in
  let c = Result.get_ok (Elaborate.flatten design ~top:"adder2") in
  for a = 0 to 3 do
    for b = 0 to 3 do
      let inputs =
        Mae_sim.Simulator.bits ~prefix:"a" ~width:2 a
        @ Mae_sim.Simulator.bits ~prefix:"b" ~width:2 b
        @ [ ("ci", false) ]
      in
      match Mae_sim.Simulator.eval c ~inputs with
      | Error e ->
          Alcotest.failf "sim: %s"
            (Format.asprintf "%a" Mae_sim.Simulator.pp_error e)
      | Ok outputs ->
          let total =
            List.fold_left
              (fun acc (name, v) ->
                if not v then acc
                else
                  match name with
                  | "s0" -> acc lor 1
                  | "s1" -> acc lor 2
                  | "co" -> acc lor 4
                  | _ -> acc)
              0 outputs
          in
          Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b) total
    done
  done

let test_flatten_errors () =
  let recursive = "module m { technology t; port a in; device u m (a); }" in
  begin
    match
      Parser.parse_string recursive |> Result.get_ok
      |> fun d -> Elaborate.flatten d ~top:"m"
    with
    | Error (Elaborate.Recursive_module "m") -> ()
    | Error _ | Ok _ -> Alcotest.fail "expected Recursive_module"
  end;
  let arity =
    "module a { technology t; port p in; device u inv (p, q); }\n\
     module b { technology t; port x in; device i a (x, y, z); }"
  in
  begin
    match
      Parser.parse_string arity |> Result.get_ok
      |> fun d -> Elaborate.flatten d ~top:"b"
    with
    | Error (Elaborate.Port_arity { expected = 1; got = 3; _ }) -> ()
    | Error _ | Ok _ -> Alcotest.fail "expected Port_arity"
  end;
  match
    Parser.parse_string "module a { technology t; port p in; }"
    |> Result.get_ok
    |> fun d -> Elaborate.flatten d ~top:"zzz"
  with
  | Error (Elaborate.Module_not_found "zzz") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Module_not_found"

let test_flatten_leaf_module_matches_plain () =
  (* flattening a design with no hierarchy equals plain elaboration *)
  let design = Parser.parse_string sample |> Result.get_ok in
  let flat = Result.get_ok (Elaborate.flatten design ~top:"half_adder") in
  let plain =
    Result.get_ok (Elaborate.find_module design ~name:"half_adder")
  in
  Alcotest.(check int) "devices" (Mae_netlist.Circuit.device_count plain)
    (Mae_netlist.Circuit.device_count flat);
  Alcotest.(check int) "nets" (Mae_netlist.Circuit.net_count plain)
    (Mae_netlist.Circuit.net_count flat)

(* One top instancing 2000 distinct leaf modules: each instance finds its
   module through the flatten's index, not a scan of the design. *)
let test_flatten_wide () =
  let leaves = 2000 in
  let b = Buffer.create (leaves * 64) in
  for i = 0 to leaves - 1 do
    Printf.bprintf b "module leaf%d { port a in; port y out; device x inv (a, y); }\n" i
  done;
  Buffer.add_string b "module top { technology nmos25; port a in;\n";
  for i = 0 to leaves - 1 do
    Printf.bprintf b "  device u%d leaf%d (a, y%d);\n" i i i
  done;
  Buffer.add_string b "}\n";
  let design = Parser.parse_string (Buffer.contents b) |> Result.get_ok in
  match Elaborate.flatten design ~top:"top" with
  | Error e -> Alcotest.failf "flatten: %s" (Format.asprintf "%a" Elaborate.pp_error e)
  | Ok c ->
      Alcotest.(check int) "one device per leaf" leaves
        (Mae_netlist.Circuit.device_count c);
      Alcotest.(check bool) "instance path names" true
        (Mae_netlist.Circuit.find_device c "u1999.x" <> None);
      let a = Option.get (Mae_netlist.Circuit.find_net c "a") in
      Alcotest.(check int) "shared input fans out to every leaf" leaves
        (Mae_netlist.Circuit.degree c a.Mae_netlist.Net.index);
      Alcotest.(check bool) "same as the list flatten" true
        (Ok c = O.flatten (O.of_design design) ~top:"top")

(* Random small hierarchies, with recursion, pin/port arity mismatches,
   duplicate names and duplicate module definitions, built in the
   oracle's tree and printed: the parsed and indexed flatten gives the
   list flatten's circuit or its error. *)
let hierarchy_gen =
  let open QCheck2.Gen in
  let modules = [ "m0"; "m1"; "m2"; "m3" ] in
  let nets = [ "a"; "b"; "c"; "n"; "k" ] in
  let item =
    frequency
      [ (1, map (fun t -> O.Technology_decl t) (oneofl [ "nmos25"; "cmos20" ]));
        ( 3,
          map2
            (fun name direction -> O.Port_decl { name; direction })
            (oneofl [ "a"; "b"; "c"; "a" ])
            (oneofl Mae_netlist.Port.[ Input; Output; Inout ]) );
        (1, map (fun n -> O.Net_decl n) (oneofl nets));
        ( 5,
          map3
            (fun name kind pins -> O.Device_decl { name; kind; pins })
            (oneofl [ "u"; "v"; "w"; "u" ])
            (oneofl ([ "inv"; "nand2" ] @ modules))
            (list_size (int_range 1 3) (oneofl nets)) ) ]
  in
  let module_decl =
    map2
      (fun name items -> { O.name; items })
      (oneofl modules)
      (list_size (int_range 0 6) item)
  in
  pair (list_size (int_range 1 5) module_decl) (oneofl ("zz" :: modules))

let flatten_props =
  [
    S.qtest ~count:2000 "indexed = list flatten" hierarchy_gen
      (fun (design, top) ->
        let parsed = Parser.parse_string (O.to_text design) |> Result.get_ok in
        O.of_design parsed = design
        && Elaborate.flatten ~default_technology:"nmos25" parsed ~top
           = O.flatten ~default_technology:"nmos25" design ~top);
  ]

(* Fuzz: malformed input must produce errors, never exceptions *)

let junk_gen =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 200))

let tokens_gen =
  QCheck2.Gen.(
    map (String.concat " ")
      (list_size (int_range 0 40)
         (oneofl
            [ "module"; "port"; "device"; "net"; "technology"; "{"; "}"; "(";
              ")"; ","; ";"; "in"; "out"; "x"; "inv"; "a[2]"; "//c"; "#c" ])))

let fuzz_props =
  [
    S.qtest ~count:300 "parser total on junk" junk_gen (fun text ->
        match Parser.parse_string text with
        | Ok _ | Error _ -> true);
    S.qtest ~count:300 "parser total on token soup" tokens_gen (fun text ->
        match Parser.parse_string text with
        | Ok _ | Error _ -> true);
    S.qtest ~count:300 "spice total on junk" junk_gen (fun text ->
        match Spice.parse_string text with
        | Ok _ | Error _ -> true);
    S.qtest ~count:300 "lexer total on junk" junk_gen (fun text ->
        match lex text with
        | Ok _ | Error _ -> true);
  ]

(* Differential: the pull parser against the list-based front end it
   replaced (Hdl_oracle), same design (read back from its id form) or the
   same error (line, column, message). *)

let same_as_oracle text =
  Result.map O.of_design (Parser.parse_string text) = O.parse_string text

let check_same what text =
  if not (same_as_oracle text) then
    Alcotest.failf "%s: pull parser and list parser disagree on %S" what text

(* Every generator circuit, printed as HDL. *)
let printed_circuits =
  let module G = Mae_workload.Generators in
  let rng = S.rng 23 in
  List.map Printer.to_string
    ([ G.full_adder (); G.ripple_adder 4; G.counter 6; G.decoder 3;
       G.parity 5; G.mux_tree 2; G.alu 3; G.shift_register 4;
       G.pass_chain 5; G.inverter_chain 4; G.multiplier 3; G.c17 () ]
    @ List.init 4 (fun i ->
          Mae_workload.Random_circuit.generate ~rng
            { Mae_workload.Random_circuit.default_params with devices = 10 + (i * 10) }))

let test_diff_printed () =
  List.iter (check_same "printed circuit") printed_circuits;
  (* a multi-module file as the CLI sees it *)
  check_same "concatenated" (String.concat "\n" printed_circuits)

let test_diff_precedence () =
  (* a lexer error after an earlier parse error wins *)
  check_same "lex error after parse error" "module { }\nmodule m { $ }";
  (match Parser.parse_string "module { }\nmodule m { $ }" with
  | Error { line = 2; column = 12; message = "unexpected character '$'" } -> ()
  | Error e -> Alcotest.failf "got %d:%d: %s" e.line e.column e.message
  | Ok _ -> Alcotest.fail "expected the lexer error");
  (* Eof after a trailing comment sits at the comment's first column *)
  check_same "eof after comment" "module m {  # open";
  match Parser.parse_string "module m {  # open" with
  | Error { line = 1; column = 13; _ } -> ()
  | Error e -> Alcotest.failf "got %d:%d: %s" e.line e.column e.message
  | Ok _ -> Alcotest.fail "expected a parse error at Eof"

(* Byte mutations of a printed circuit: overwrite, insert or delete a
   byte, drawn from a set rich in token starts, comments and junk. *)
let mutated_gen =
  let open QCheck2.Gen in
  let texts = Array.of_list printed_circuits in
  let byte =
    oneof
      [ oneofl [ '{'; '}'; '('; ')'; ','; ';'; '#'; '/'; '\n'; ' '; '\t'; '$'; '.' ];
        char_range ' ' '~' ]
  in
  let edit = triple (int_range 0 2) nat byte in
  map
    (fun (k, edits) ->
      let b = Buffer.create 256 in
      List.fold_left
        (fun text (op, pos, c) ->
          let n = String.length text in
          let pos = if n = 0 then 0 else pos mod n in
          Buffer.clear b;
          Buffer.add_string b (String.sub text 0 pos);
          (match op with
          | 0 -> Buffer.add_char b c; Buffer.add_string b (String.sub text (min n (pos + 1)) (max 0 (n - pos - 1)))
          | 1 -> Buffer.add_char b c; Buffer.add_string b (String.sub text pos (n - pos))
          | _ -> Buffer.add_string b (String.sub text (min n (pos + 1)) (max 0 (n - pos - 1))));
          Buffer.contents b)
        texts.(k mod Array.length texts)
        edits)
    (pair nat (list_size (int_range 1 4) edit))

let soup_gen =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 60)
         (oneofl
            [ "module"; "port"; "device"; "net"; "technology"; "modules"; "nets";
              "{"; "}"; "("; ")"; ","; ";"; "in"; "out"; "inout"; "x"; "a[2]";
              " "; " "; "\n"; "\t"; "\r"; "//c"; "#c\n"; "/"; "$" ])))

let diff_props =
  [
    S.qtest ~count:2000 "pull = list on junk" junk_gen same_as_oracle;
    S.qtest ~count:2000 "pull = list on token soup" tokens_gen same_as_oracle;
    S.qtest ~count:2000 "pull = list on dense soup" soup_gen same_as_oracle;
    S.qtest ~count:2000 "pull = list on mutated circuits" mutated_gen
      same_as_oracle;
  ]

(* Differential: the interning front end (Parser to the id form, then
   Elaborate's stamp arrays) against the list parser and the Builder
   elaboration it replaced (Hdl_oracle), same circuits or the same
   error. *)

let front_end ?default_technology text =
  match Parser.parse_string text with
  | Error e -> Error (O.Parse e)
  | Ok design ->
      Result.map_error
        (fun e -> O.Elaborate e)
        (Elaborate.design_to_circuits ?default_technology design)

let same_circuits text =
  front_end text = O.front_end text
  && front_end ~default_technology:"cmos20" text
     = O.front_end ~default_technology:"cmos20" text

let check_circuits what text =
  if not (same_circuits text) then
    Alcotest.failf "%s: interned and list front ends disagree on %S" what text

(* Differential: Elaborate builds its circuits without name tables
   ([Circuit.of_distinct_arrays]); the checked constructor must accept
   the same arrays and build an equal circuit. *)
let checked (c : Mae_netlist.Circuit.t) =
  match
    Mae_netlist.Circuit.of_arrays ~name:c.name ~technology:c.technology
      ~devices:(Array.copy c.devices) ~nets:(Array.copy c.nets)
      ~ports:(Array.copy c.ports)
  with
  | c' -> c' = c
  | exception Invalid_argument _ -> false

let all_checked text =
  List.for_all
    (fun default_technology ->
      match front_end ?default_technology text with
      | Ok circuits -> List.for_all checked circuits
      | Error _ -> true)
    [ None; Some "cmos20" ]

(* Differential: every circuit the text elaborates to, flattened for
   full-custom estimation through both cell libraries: the statistics
   walk agrees with Stats.compute of the built expansion (fields as
   Int64 bits, per-net arrays, both full-custom modes, the ledger text),
   or both fail alike. *)
let walk_agrees text =
  match front_end text with
  | Error _ -> true
  | Ok circuits ->
      List.for_all
        (fun c ->
          List.for_all
            (fun library -> S.walk_agrees library c (S.library_process library))
            [ Mae_celllib.Nmos_lib.library; Mae_celllib.Cmos_lib.library ])
        circuits

(* Gate-level generator circuits and their transistor-level expansions,
   printed: each elaborates, to the oracle's circuit. *)
let test_interned_printed () =
  let gate_level = printed_circuits in
  let transistor_level =
    List.map
      (fun c -> Printer.to_string (Mae_workload.Bench_circuits.flatten c))
      Mae_workload.Generators.[ full_adder (); counter 4; alu 2; multiplier 3 ]
  in
  List.iter
    (fun text ->
      (match front_end text with
      | Ok [ _ ] -> ()
      | Ok _ | Error _ -> Alcotest.failf "printed circuit does not elaborate: %S" text);
      check_circuits "printed circuit" text;
      if not (all_checked text) then
        Alcotest.failf "of_arrays disagrees on printed circuit %S" text)
    (gate_level @ transistor_level);
  check_circuits "concatenated" (String.concat "\n" (gate_level @ transistor_level))

let expect_error what text expected =
  check_circuits what text;
  match front_end text with
  | Error e when e = expected -> ()
  | Error _ | Ok _ -> Alcotest.failf "%s: not the expected error on %S" what text

let test_interned_cases () =
  let dup what name = O.Elaborate (Elaborate.Duplicate_name { module_name = "m"; what; name }) in
  expect_error "duplicate device"
    "module m { technology t; device u inv (a); device u inv (b); }"
    (dup "device" "u");
  expect_error "duplicate port" "module m { technology t; port a in; port a out; }"
    (dup "port" "a");
  (* the first error in item order: port p repeats before device u does *)
  expect_error "first error"
    "module m { technology t; device u inv (a); port p in; port p out; device u inv (b); }"
    (dup "port" "p");
  expect_error "no technology before a duplicate" "module m { port a in; port a in; }"
    (O.Elaborate (Elaborate.No_technology { module_name = "m" }));
  (* module a fails elaboration, module c has a syntax error: the parse
     error wins *)
  expect_error "parse error wins"
    "module a { port p in; port p in; }\nmodule b { technology t; }\nmodule c { port }"
    (O.Parse { line = 3; column = 17; message = "expected port name but found }" });
  List.iter
    (fun text ->
      check_circuits "case" text;
      match front_end text with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "expected circuits from %S" text)
    [ (* a name used as a device, a net and a port *)
      "module m { technology t; port a in; device a inv (a, b); net b; device b inv (b, a); }";
      (* two technology items: the last wins *)
      "module m { technology t1; port a in; technology t2; device x inv (a, y); }";
      (* keyword-prefixed identifiers *)
      "module modules { technology netx; port netx in; port device1 out;\n\
      \  device device1 modules (netx, device1, nets, ports1, technologyx, module_, devices);\n\
      \  net portx; }";
      (* no items, a lone net, two modules that share names *)
      "module m { technology t; }";
      "module m { technology t; net n; }";
      "module m { technology t; port a in; device u inv (a, b); }\n\
       module n { technology t; port b in; device u inv (b, a); }" ];
  (match front_end "module m { technology t1; port a in; technology t2; }" with
  | Ok [ c ] ->
      Alcotest.(check string) "last technology" "t2" c.Mae_netlist.Circuit.technology
  | Ok _ | Error _ -> Alcotest.fail "expected one circuit");
  check_circuits "missing technology" "module m { port a in; device u inv (a, b); }";
  (* each module's ids start from 0, in order of first sight *)
  match Parser.parse_string "module m { net a; net m; } module n { net b; net a; }" with
  | Ok [ m; n ] ->
      Alcotest.(check (array string)) "first id space" [| "m"; "a" |] m.Ast.idents;
      Alcotest.(check (array string)) "second id space" [| "n"; "b"; "a" |] n.Ast.idents
  | Ok _ | Error _ -> Alcotest.fail "expected two modules"

(* Random flat designs whose devices, ports, nets, kinds and technology
   draw on one pool of names, keyword-prefixed ones among them, so a name
   often serves in several namespaces at once. *)
let flat_design_gen =
  let open QCheck2.Gen in
  let pool = [ "a"; "b"; "u"; "in"; "netx"; "modules"; "device1"; "a[1]" ] in
  let item =
    frequency
      [ (1, map (fun t -> O.Technology_decl t) (oneofl [ "nmos25"; "netx" ]));
        ( 3,
          map2
            (fun name direction -> O.Port_decl { name; direction })
            (oneofl pool)
            (oneofl Mae_netlist.Port.[ Input; Output; Inout ]) );
        (2, map (fun n -> O.Net_decl n) (oneofl pool));
        ( 5,
          map3
            (fun name kind pins -> O.Device_decl { name; kind; pins })
            (oneofl pool) (oneofl pool)
            (list_size (int_range 1 4) (oneofl pool)) ) ]
  in
  list_size (int_range 1 3)
    (map2
       (fun name items -> { O.name; items })
       (oneofl [ "m0"; "m1"; "modules" ])
       (list_size (int_range 0 8) item))

let interned_props =
  [
    S.qtest ~count:2000 "interned = list on flat designs" flat_design_gen
      (fun design ->
        let parsed = Parser.parse_string (O.to_text design) |> Result.get_ok in
        O.of_design parsed = design
        && Elaborate.design_to_circuits parsed = O.design_to_circuits design
        && Elaborate.design_to_circuits ~default_technology:"cmos20" parsed
           = O.design_to_circuits ~default_technology:"cmos20" design
        && List.for_all
             (fun name ->
               Elaborate.find_module parsed ~name = O.find_module design ~name)
             [ "m0"; "m1"; "modules"; "zz" ]);
    S.qtest ~count:1000 "interned = list on junk" junk_gen same_circuits;
    S.qtest ~count:1000 "interned = list on token soup" tokens_gen same_circuits;
    S.qtest ~count:1000 "interned = list on dense soup" soup_gen same_circuits;
    S.qtest ~count:1000 "interned = list on mutated circuits" mutated_gen
      same_circuits;
    S.qtest ~count:1000 "of_arrays accepts flat designs" flat_design_gen (fun design ->
        all_checked (O.to_text design));
    S.qtest ~count:1000 "of_arrays accepts mutated circuits" mutated_gen all_checked;
    S.qtest ~count:1000 "of_arrays accepts dense soup" soup_gen all_checked;
    S.qtest ~count:1000 "walk stats = expansion stats on flat designs"
      flat_design_gen (fun design -> walk_agrees (O.to_text design));
    S.qtest ~count:1000 "walk stats = expansion stats on dense soup" soup_gen
      walk_agrees;
    S.qtest ~count:1000 "walk stats = expansion stats on mutated circuits"
      mutated_gen walk_agrees;
  ]

(* The lexer's hash before it was seeded: a fixed polynomial modulo
   2^63, [h = h * 0x100000001b3 + byte] from [h = 0]. *)
let fixed_hash s =
  String.fold_left (fun h c -> (h * 0x100000001b3) + Char.code c) 0 s

(* The name "n" followed by [blocks] blocks, block [b] being [y] where
   bit [b] of [i] is set and [x] elsewhere. *)
let block_name x y blocks i =
  "n" ^ String.concat "" (List.init blocks (fun b -> if (i lsr b) land 1 = 0 then x else y))

(* 20 000 distinct names whose fixed hashes agree in their low 16 bits,
   so they would share one probe run of a table of at most 65 536
   slots.  The hash is linear in the bytes, so two 3-byte blocks with
   equal value modulo 2^16 can stand in for each other anywhere in a
   name: 15 block positions give 2^15 names of one length. *)
let colliding_names count =
  let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_" in
  let block k =
    String.init 3 (fun i -> alphabet.[(k / [| 1; 63; 63 * 63 |].(i)) mod 63])
  in
  let first = Array.make 65536 (-1) in
  let rec pair k =
    let v = fixed_hash (block k) land 0xffff in
    if first.(v) >= 0 then (block first.(v), block k)
    else begin
      first.(v) <- k;
      pair (k + 1)
    end
  in
  let x, y = pair 0 in
  List.init count (block_name x y 15)

(* 2^14 names of 449 bytes built from the two 32-byte Thue-Morse words.
   Their difference is a multiple of (1 - m)(1 - m^2)(1 - m^4)(1 - m^8)
   (1 - m^16), so any polynomial hash modulo a power of two with an odd
   multiplier [m] gives them equal low 19 bits, whatever [m] is. *)
let thue_morse_names () =
  let word flip =
    String.init 32 (fun k ->
        let rec parity k = if k = 0 then 0 else (k land 1) lxor parity (k lsr 1) in
        if parity k lxor flip = 0 then 'a' else 'b')
  in
  List.init (1 lsl 14) (block_name (word 0) (word 1) 14)

(* As many random identifiers as [names], each as long as its
   counterpart. *)
let ordinary_names names =
  let rng = Random.State.make [| 28 |] in
  let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_" in
  List.map
    (fun n ->
      "n"
      ^ String.init (String.length n - 1) (fun _ ->
            alphabet.[Random.State.int rng (String.length alphabet)]))
    names

(* One module with a device per name, wired in a ring. *)
let ring_text names =
  let names = Array.of_list names in
  let count = Array.length names in
  let b = Buffer.create (count * 3 * (String.length names.(0) + 8)) in
  Buffer.add_string b "module hostile { technology nmos25;\n";
  Array.iteri
    (fun i n ->
      Printf.bprintf b "  device %s inv (%s, %s);\n" n n names.((i + 1) mod count))
    names;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* The best of 3 CPU timings of parsing [text]. *)
let parse_seconds text =
  let once () =
    let t0 = Sys.time () in
    (match Parser.parse_string text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e);
    Sys.time () -. t0
  in
  List.fold_left min infinity (List.init 3 (fun _ -> once ()))

(* Hostile names that collide in the low [bits] bits of [fixed_hash]
   parse within 3 times the time of ordinary names of the same count
   and length, and elaborate to the oracle's circuit. *)
let check_hostile ~bits names =
  let count = List.length names in
  let low n = fixed_hash n land ((1 lsl bits) - 1) in
  let slot = low (List.hd names) in
  Alcotest.(check bool) "one fixed-hash slot run" true
    (List.for_all (fun n -> low n = slot) names);
  Alcotest.(check int) "distinct" count
    (List.length (List.sort_uniq String.compare names));
  let text = ring_text names in
  let hostile = parse_seconds text
  and ordinary = parse_seconds (ring_text (ordinary_names names)) in
  if hostile > 3. *. ordinary then
    Alcotest.failf "%d hostile names parse in %.3f s, ordinary ones in %.3f s"
      count hostile ordinary;
  match front_end text with
  | Ok [ c ] ->
      Alcotest.(check int) "devices" count (Mae_netlist.Circuit.device_count c);
      Alcotest.(check int) "nets" count (Mae_netlist.Circuit.net_count c);
      Alcotest.(check bool) "oracle's circuit" true (Ok [ c ] = O.front_end text);
      Alcotest.(check bool) "of_arrays accepts it" true (checked c)
  | Ok _ | Error _ -> Alcotest.fail "expected one circuit"

let test_intern_collisions () = check_hostile ~bits:16 (colliding_names 20_000)

let test_intern_thue_morse () = check_hostile ~bits:19 (thue_morse_names ())

let () =
  Alcotest.run "hdl"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "error" `Quick test_lexer_error;
          Alcotest.test_case "bus bits" `Quick test_lexer_bus_bits;
        ] );
      ( "parser",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "multiple modules" `Quick test_parse_multiple_modules;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "sample" `Quick test_elaborate_sample;
          Alcotest.test_case "no technology" `Quick test_elaborate_no_technology;
          Alcotest.test_case "duplicates" `Quick test_elaborate_duplicate;
          Alcotest.test_case "find module" `Quick test_find_module;
        ] );
      ("printer", [ Alcotest.test_case "round trip" `Quick test_printer_roundtrip ]);
      ( "flatten",
        [
          Alcotest.test_case "hierarchy" `Quick test_flatten_hierarchy;
          Alcotest.test_case "functional" `Quick test_flatten_functional;
          Alcotest.test_case "errors" `Quick test_flatten_errors;
          Alcotest.test_case "leaf equals plain" `Quick
            test_flatten_leaf_module_matches_plain;
          Alcotest.test_case "wide hierarchy" `Quick test_flatten_wide;
        ]
        @ flatten_props );
      ( "spice",
        [
          Alcotest.test_case "parse" `Quick test_spice_parse;
          Alcotest.test_case "errors" `Quick test_spice_errors;
        ] );
      ("fuzz", fuzz_props);
      ( "pull",
        [
          Alcotest.test_case "printed circuits" `Quick test_diff_printed;
          Alcotest.test_case "error precedence" `Quick test_diff_precedence;
        ]
        @ diff_props );
      ( "interned",
        [
          Alcotest.test_case "printed circuits" `Quick test_interned_printed;
          Alcotest.test_case "cases" `Quick test_interned_cases;
          Alcotest.test_case "colliding names" `Quick test_intern_collisions;
          Alcotest.test_case "Thue-Morse names" `Quick test_intern_thue_morse;
        ]
        @ interned_props );
    ]

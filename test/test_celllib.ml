open Mae_celllib
module S = Mae_test_support.Support

let test_cell_validation () =
  S.raises_invalid (fun () ->
      Cell.make ~name:"bad" ~pins:[ ("a", Cell.Input) ]
        ~transistors:
          [ { Cell.name = "t"; kind = "nenh"; drain = Cell.Pin 5;
              gate = Cell.Pin 0; source = Cell.Gnd } ]);
  S.raises_invalid (fun () ->
      Cell.make ~name:"bad" ~pins:[]
        ~transistors:
          [ { Cell.name = "t"; kind = "nenh"; drain = Cell.Gnd;
              gate = Cell.Gnd; source = Cell.Gnd };
            { Cell.name = "t"; kind = "nenh"; drain = Cell.Gnd;
              gate = Cell.Gnd; source = Cell.Gnd } ])

(* The template rules behind Expand's built names: no dotted
   transistor or internal net, no internal net named like an unconnected
   pin's private net. *)
let test_cell_names () =
  let cell ?(tx = "t") net =
    Cell.make ~name:"c" ~pins:[ ("a", Cell.Input) ]
      ~transistors:
        [ { Cell.name = tx; kind = "nenh"; drain = Cell.Internal net;
            gate = Cell.Pin 0; source = Cell.Gnd } ]
  in
  List.iter
    (fun (tx, net) -> S.raises_invalid (fun () -> cell ~tx net))
    [ ("t.1", "m"); (".", "m"); ("t", "m.1"); ("t", "."); ("t", "unconnected0");
      ("t", "unconnected12") ];
  List.iter
    (fun net -> ignore (cell net))
    [ "m"; "unconnected"; "unconnectedx"; "unconnected1a"; "xunconnected1" ];
  List.iter
    (fun library ->
      Alcotest.(check bool) "library builds" true (Library.cells library <> []))
    [ Nmos_lib.library; Cmos_lib.library ]

let expected_nmos_counts =
  [ ("inv", 2); ("buf", 4); ("nand2", 3); ("nand3", 4); ("nand4", 5);
    ("nor2", 3); ("nor3", 4); ("aoi22", 5); ("xor2", 9); ("mux2", 8);
    ("latch", 8); ("dff", 18) ]

let expected_cmos_counts =
  [ ("inv", 2); ("buf", 4); ("nand2", 4); ("nand3", 6); ("nand4", 8);
    ("nor2", 4); ("nor3", 6); ("aoi22", 8); ("xor2", 12); ("mux2", 10);
    ("latch", 10); ("dff", 18) ]

let check_counts lib expected =
  List.iter
    (fun (name, count) ->
      let cell = Library.find_exn lib name in
      Alcotest.(check int) (name ^ " transistors") count
        (Cell.transistor_count cell))
    expected

let test_nmos_transistor_counts () = check_counts Nmos_lib.library expected_nmos_counts

let test_cmos_transistor_counts () = check_counts Cmos_lib.library expected_cmos_counts

let test_library_process_consistency () =
  Alcotest.(check (list string)) "nmos lib vs nmos25" []
    (Library.check_against_process Nmos_lib.library S.nmos);
  Alcotest.(check (list string)) "cmos lib vs cmos20" []
    (Library.check_against_process Cmos_lib.library Mae_tech.Builtin.cmos20);
  (* the nMOS library's depletion loads do not exist in a CMOS process *)
  Alcotest.(check bool) "nmos lib vs cmos20 inconsistent" true
    (Library.check_against_process Nmos_lib.library Mae_tech.Builtin.cmos20 <> [])

let test_library_lookup () =
  Alcotest.(check bool) "find" true (Library.find Nmos_lib.library "inv" <> None);
  Alcotest.(check bool) "missing" true (Library.find Nmos_lib.library "zzz" = None);
  Alcotest.check_raises "find_exn" Not_found (fun () ->
      ignore (Library.find_exn Nmos_lib.library "zzz"));
  Alcotest.(check int) "12 cells per library" 12
    (List.length (Library.cells Nmos_lib.library));
  S.raises_invalid (fun () ->
      ignore
        (Library.make ~name:"dup"
           ~cells:[ Nmos_lib.find_exn "inv"; Nmos_lib.find_exn "inv" ]))

let test_for_technology () =
  Alcotest.(check bool) "nmos25 -> nmos lib" true
    (Cmos_lib.for_technology "nmos25" = Some Nmos_lib.library);
  Alcotest.(check bool) "cmos20 -> cmos lib" true
    (Cmos_lib.for_technology "cmos20" = Some Cmos_lib.library);
  Alcotest.(check bool) "unknown" true (Cmos_lib.for_technology "bipolar" = None)

(* Expansion *)

let test_expand_inverter_structure () =
  (* inv(a, y) in nMOS expands to a depletion load on y and a pull-down
     with gate a; the supply rails are dropped by default. *)
  let b = Mae_netlist.Builder.create ~name:"one" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a"; "y" ]);
  Mae_netlist.Builder.add_port b ~name:"a" ~direction:Mae_netlist.Port.Input ~net:"a";
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check int) "2 transistors" 2 (Mae_netlist.Circuit.device_count tx);
      let y = Option.get (Mae_netlist.Circuit.find_net tx "y") in
      Alcotest.(check int) "y touches both" 2
        (Mae_netlist.Circuit.degree tx y.Mae_netlist.Net.index);
      Alcotest.(check bool) "no vdd" true
        (Mae_netlist.Circuit.find_net tx "vdd!" = None);
      Alcotest.(check int) "ports preserved" 1 (Mae_netlist.Circuit.port_count tx)

let test_expand_with_supplies () =
  let b = Mae_netlist.Builder.create ~name:"one" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a"; "y" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit ~include_supplies:true Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check bool) "vdd present" true
        (Mae_netlist.Circuit.find_net tx "vdd!" <> None);
      Alcotest.(check bool) "gnd present" true
        (Mae_netlist.Circuit.find_net tx "gnd!" <> None)

let test_expand_full_adder () =
  let tx = S.full_adder_tx in
  (* 2 xor2 (9 each) + 3 nand2 (3 each) = 27 *)
  Alcotest.(check int) "27 transistors" 27 (Mae_netlist.Circuit.device_count tx);
  Alcotest.(check int) "ports preserved" 5 (Mae_netlist.Circuit.port_count tx);
  (* every transistor kind footprints in the process *)
  let stats = Mae_netlist.Stats.compute tx S.nmos in
  Alcotest.(check int) "N" 27 stats.Mae_netlist.Stats.device_count

let test_expand_transistor_count_agrees () =
  match Expand.transistor_count Nmos_lib.library S.full_adder with
  | Ok n -> Alcotest.(check int) "count without building" 27 n
  | Error _ -> Alcotest.fail "count failed"

let test_expand_unknown_cell () =
  let b = Mae_netlist.Builder.create ~name:"bad" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"alien" ~nets:[ "a" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error (Expand.Unknown_cell { kind = "alien"; _ }) -> ()
  | Error (Expand.Unknown_cell _) | Ok _ -> Alcotest.fail "expected Unknown_cell"

let test_expand_internal_nets_private () =
  (* two nand2 instances must not share their internal pull-down node *)
  let b = Mae_netlist.Builder.create ~name:"two" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"g1" ~kind:"nand2" ~nets:[ "a"; "b"; "x" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"g2" ~kind:"nand2" ~nets:[ "a"; "b"; "y" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check bool) "g1 internal" true
        (Mae_netlist.Circuit.find_net tx "g1.pd_m1" <> None);
      Alcotest.(check bool) "g2 internal" true
        (Mae_netlist.Circuit.find_net tx "g2.pd_m1" <> None)

(* Differential: the id-keyed expansion against the by-name one it
   replaced (Expand_oracle): identical circuits, or the same error. *)

let same_expansion ~include_supplies library c =
  Expand.circuit ~include_supplies library c
  = Mae_test_support.Expand_oracle.circuit ~include_supplies library c

let check_same_expansion library c =
  List.iter
    (fun include_supplies ->
      if not (same_expansion ~include_supplies library c) then
        Alcotest.failf "%s (include_supplies %b): expansions differ"
          c.Mae_netlist.Circuit.name include_supplies)
    [ false; true ]

let generator_circuits =
  let module G = Mae_workload.Generators in
  List.concat_map
    (fun (technology, library) ->
      let rng = S.rng 17 in
      List.map
        (fun c -> (library, c))
        ([ G.full_adder ~technology (); G.ripple_adder ~technology 4;
           G.counter ~technology 8; G.decoder ~technology 3;
           G.parity ~technology 6; G.mux_tree ~technology 3;
           G.alu ~technology 4; G.shift_register ~technology 5;
           G.multiplier ~technology 4; G.c17 ~technology ();
           (* already transistors: both answer Unknown_cell *)
           G.pass_chain ~technology 4; G.inverter_chain ~technology 3 ]
        @ List.init 8 (fun i ->
              Mae_workload.Random_circuit.generate ~rng
                { Mae_workload.Random_circuit.default_params with
                  devices = 10 + (i * 40); technology })))
    [ ("nmos25", Nmos_lib.library); ("cmos20", Cmos_lib.library) ]

let test_expand_same_on_generators () =
  List.iter (fun (library, c) -> check_same_expansion library c) generator_circuits

(* Differential: the expansion builds its circuit without name tables
   ([Circuit.of_distinct_arrays]); the checked constructor must accept
   the same arrays and build an equal circuit. *)
let checked_agrees ~include_supplies library c =
  match Expand.circuit ~include_supplies library c with
  | Error _ -> true
  | Ok (tx : Mae_netlist.Circuit.t) -> (
      match
        Mae_netlist.Circuit.of_arrays ~name:tx.name ~technology:tx.technology
          ~devices:(Array.copy tx.devices) ~nets:(Array.copy tx.nets)
          ~ports:(Array.copy tx.ports)
      with
      | checked -> checked = tx
      | exception Invalid_argument _ -> false)

let test_expand_checked_on_generators () =
  List.iter
    (fun (library, (c : Mae_netlist.Circuit.t)) ->
      List.iter
        (fun include_supplies ->
          if not (checked_agrees ~include_supplies library c) then
            Alcotest.failf "%s (include_supplies %b): of_arrays disagrees" c.name
              include_supplies)
        [ false; true ])
    generator_circuits

(* Differential: the statistics walk ([Expand.stats]) against
   [Stats.compute] of the built expansion: every field as Int64 bits,
   per-net arrays included, both full-custom modes and the --verbose
   ledger text, or the same error.  Under the library's own process,
   and under the other one, where a template's transistor kind is
   unknown. *)
let test_walk_on_generators () =
  List.iter
    (fun (library, c) ->
      S.check_walk library c (S.library_process library);
      S.check_walk library c Mae_tech.Builtin.cmos15)
    generator_circuits

let test_walk_unknown_cell () =
  let b = Mae_netlist.Builder.create ~name:"bad" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"alien" ~nets:[ "a" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.stats Nmos_lib.library c S.nmos with
  | Error (Expand.Unknown_cell { device = "u"; kind = "alien" }) -> ()
  | Error (Expand.Unknown_cell _) | Ok _ -> Alcotest.fail "expected Unknown_cell"

(* A template transistor the process does not define raises
   Unknown_kind, naming the first such transistor's kind, as
   [Stats.compute] of the expansion does. *)
let test_walk_unknown_kind () =
  let c = S.counter8 in
  let expected = Mae_netlist.Stats.Unknown_kind "ndep" in
  Alcotest.check_raises "expansion" expected (fun () ->
      ignore
        (Mae_netlist.Stats.compute
           (Result.get_ok (Expand.circuit Nmos_lib.library c))
           Mae_tech.Builtin.cmos20));
  Alcotest.check_raises "walk" expected (fun () ->
      ignore (Expand.stats Nmos_lib.library c Mae_tech.Builtin.cmos20))

(* The walk builds no transistor: on a 912-transistor expansion it
   allocates fewer minor-heap words than one bare Device.t record
   (header and four fields) per transistor would take. *)
let test_walk_allocates_no_devices () =
  let c = Mae_workload.Generators.multiplier 6 in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let built = words (fun () -> Expand.circuit Nmos_lib.library c) in
  let walked = words (fun () -> Expand.stats Nmos_lib.library c S.nmos) in
  let tx = Result.get_ok (Expand.transistor_count Nmos_lib.library c) in
  if walked >= Float.of_int (5 * tx) then
    Alcotest.failf "walk allocated %.0f words for %d transistors (build: %.0f)"
      walked tx built

(* Circuits whose names are chosen to collide with what the expansion
   makes: raw nets named like a device's internal nets ([g1.pd_m1]),
   like its unconnected pins ([g1.unconnected2]) or like the rails
   ([vdd!]), dotted device names, devices with fewer (or more) pins than
   their cell, and the odd unknown kind. *)
let hostile_gen =
  let open QCheck2.Gen in
  let library = oneofl [ Nmos_lib.library; Cmos_lib.library ] in
  let device_names = [ "g1"; "g2"; "g1.pd"; "g1.n"; "x.y"; "g" ] in
  let internal library =
    List.concat_map
      (fun (cell : Cell.t) ->
        List.filter_map
          (function Cell.Internal n -> Some n | Cell.Pin _ | Vdd | Gnd -> None)
          (List.concat_map
             (fun (t : Cell.transistor) -> [ t.drain; t.gate; t.source ])
             cell.transistors))
      (Library.cells library)
  in
  library >>= fun library ->
  let net_names =
    [ "a"; "b"; "y"; "vdd!"; "gnd!"; "g1.unconnected1"; "g1.unconnected2";
      "g2.unconnected0"; "g1.pd.m" ]
    @ List.concat_map
        (fun n -> [ "g1." ^ n; "g2." ^ n; "x.y." ^ n ])
        (List.sort_uniq String.compare (internal library))
  in
  let kinds = "alien" :: Library.cell_names library in
  let device =
    triple (oneofl device_names)
      (frequency [ (20, oneofl (List.tl kinds)); (1, return "alien") ])
      (list_size (int_range 0 5) (oneofl net_names))
  in
  map2
    (fun devices ports ->
      let b = Mae_netlist.Builder.create ~name:"hostile" ~technology:"t" in
      List.iter
        (fun (name, kind, nets) ->
          try ignore (Mae_netlist.Builder.add_device b ~name ~kind ~nets)
          with Invalid_argument _ -> (* duplicate instance name *) ())
        devices;
      List.iter
        (fun net ->
          try
            Mae_netlist.Builder.add_port b ~name:net
              ~direction:Mae_netlist.Port.Input ~net
          with Invalid_argument _ -> ())
        ports;
      (library, Mae_netlist.Builder.build b))
    (list_size (int_range 0 8) device)
    (list_size (int_range 0 3) (oneofl net_names))

let expand_props =
  [
    S.qtest ~count:2000 "id = name on hostile names" hostile_gen
      (fun (library, c) ->
        same_expansion ~include_supplies:false library c
        && same_expansion ~include_supplies:true library c);
    S.qtest ~count:2000 "walk stats = expansion stats on hostile names" hostile_gen
      (fun (library, c) ->
        S.walk_agrees library c (S.library_process library)
        && S.walk_agrees library c Mae_tech.Builtin.cmos15);
    S.qtest ~count:2000 "of_arrays accepts hostile-name expansions" hostile_gen
      (fun (library, c) ->
        checked_agrees ~include_supplies:false library c
        && checked_agrees ~include_supplies:true library c);
  ]

(* Properties *)

let props =
  let open QCheck2.Gen in
  let cell_gen = oneofl (Library.cells Nmos_lib.library) in
  [
    S.qtest "every nmos cell has a depletion load per output" cell_gen
      (fun cell ->
        (* at least one ndep transistor unless the cell is pass-gate only *)
        List.exists (fun (t : Cell.transistor) -> t.kind = "ndep")
          cell.Cell.transistors);
    S.qtest "every cmos cell is complementary"
      (oneofl (Library.cells Cmos_lib.library))
      (fun cell ->
        let n =
          List.length
            (List.filter (fun (t : Cell.transistor) -> t.kind = "nenh")
               cell.Cell.transistors)
        in
        let p =
          List.length
            (List.filter (fun (t : Cell.transistor) -> t.kind = "pmos")
               cell.Cell.transistors)
        in
        n = p);
    S.qtest "pin counts positive" cell_gen (fun cell ->
        Cell.pin_count cell >= 2 && Cell.input_count cell >= 1);
  ]

let () =
  Alcotest.run "celllib"
    [
      ( "cell",
        [
          Alcotest.test_case "validation" `Quick test_cell_validation;
          Alcotest.test_case "name rules" `Quick test_cell_names;
        ] );
      ( "libraries",
        [
          Alcotest.test_case "nmos transistor counts" `Quick
            test_nmos_transistor_counts;
          Alcotest.test_case "cmos transistor counts" `Quick
            test_cmos_transistor_counts;
          Alcotest.test_case "process consistency" `Quick
            test_library_process_consistency;
          Alcotest.test_case "lookup" `Quick test_library_lookup;
          Alcotest.test_case "for_technology" `Quick test_for_technology;
        ] );
      ( "expand",
        [
          Alcotest.test_case "inverter structure" `Quick
            test_expand_inverter_structure;
          Alcotest.test_case "with supplies" `Quick test_expand_with_supplies;
          Alcotest.test_case "full adder" `Quick test_expand_full_adder;
          Alcotest.test_case "transistor_count" `Quick
            test_expand_transistor_count_agrees;
          Alcotest.test_case "unknown cell" `Quick test_expand_unknown_cell;
          Alcotest.test_case "internal nets private" `Quick
            test_expand_internal_nets_private;
          Alcotest.test_case "id = name on generators" `Quick
            test_expand_same_on_generators;
          Alcotest.test_case "of_arrays accepts generator expansions" `Quick
            test_expand_checked_on_generators;
          Alcotest.test_case "walk stats = expansion stats on generators" `Quick
            test_walk_on_generators;
          Alcotest.test_case "walk unknown cell" `Quick test_walk_unknown_cell;
          Alcotest.test_case "walk unknown transistor kind" `Quick
            test_walk_unknown_kind;
          Alcotest.test_case "walk builds no transistors" `Quick
            test_walk_allocates_no_devices;
        ]
        @ expand_props );
      ("properties", props);
    ]

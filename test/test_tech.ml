open Mae_tech
module S = Mae_test_support.Support

let test_device_kind () =
  let k = Device_kind.make ~name:"nenh"
      ~category:(Device_kind.Transistor Device_kind.Nmos_enhancement)
      ~width:4. ~height:10. in
  S.check_float "area" 40. (Device_kind.area k);
  Alcotest.(check bool) "is transistor" true (Device_kind.is_transistor k);
  let g = Device_kind.make ~name:"inv" ~category:Device_kind.Logic_gate
      ~width:8. ~height:40. in
  Alcotest.(check bool) "gate not transistor" false (Device_kind.is_transistor g);
  S.raises_invalid (fun () ->
      Device_kind.make ~name:"" ~category:Device_kind.Logic_gate ~width:1. ~height:1.);
  S.raises_invalid (fun () ->
      Device_kind.make ~name:"x" ~category:Device_kind.Logic_gate ~width:0. ~height:1.)

let test_category_strings () =
  let cats =
    [ Device_kind.Transistor Device_kind.Nmos_enhancement;
      Device_kind.Transistor Device_kind.Nmos_depletion;
      Device_kind.Transistor Device_kind.Pmos;
      Device_kind.Logic_gate; Device_kind.Storage; Device_kind.Pad;
      Device_kind.Feed_through ]
  in
  List.iter
    (fun c ->
      match Device_kind.category_of_string (Device_kind.category_to_string c) with
      | Some c' -> Alcotest.(check bool) "round trip" true (c = c')
      | None -> Alcotest.fail "category did not round-trip")
    cats;
  Alcotest.(check bool) "unknown" true
    (Device_kind.category_of_string "bogus" = None)

let test_process_validation () =
  S.raises_invalid (fun () ->
      Process.make ~name:"p" ~lambda_microns:0. ~row_height:1. ~track_pitch:1.
        ~feed_through_width:1. ~port_pitch:1. ~min_spacing:1. ~devices:[]);
  let dup = Device_kind.make ~name:"a" ~category:Device_kind.Logic_gate ~width:1. ~height:1. in
  S.raises_invalid (fun () ->
      Process.make ~name:"p" ~lambda_microns:1. ~row_height:1. ~track_pitch:1.
        ~feed_through_width:1. ~port_pitch:1. ~min_spacing:1.
        ~devices:[ dup; dup ])

let test_process_lookup () =
  let p = S.nmos in
  Alcotest.(check bool) "nenh exists" true (Process.find_device p "nenh" <> None);
  Alcotest.(check bool) "missing" true (Process.find_device p "zzz" = None);
  S.check_float "inv area" (8. *. 40.)
    (Option.get (Process.device_area p "inv"));
  Alcotest.check_raises "find_device_exn" Not_found (fun () ->
      ignore (Process.find_device_exn p "zzz"))

let test_builtin_consistency () =
  List.iter
    (fun (p : Process.t) ->
      Alcotest.(check bool) (p.name ^ " has inv") true
        (Process.find_device p "inv" <> None);
      Alcotest.(check bool) (p.name ^ " has dff") true
        (Process.find_device p "dff" <> None);
      Alcotest.(check bool) (p.name ^ " has a feed cell") true
        (List.exists
           (fun (d : Device_kind.t) -> d.category = Device_kind.Feed_through)
           p.devices);
      (* every gate fits the row height *)
      List.iter
        (fun (d : Device_kind.t) ->
          match d.category with
          | Device_kind.Logic_gate | Device_kind.Storage ->
              S.check_float (p.name ^ "/" ^ d.name ^ " height") p.row_height
                d.height
          | Device_kind.Transistor _ | Device_kind.Pad
          | Device_kind.Feed_through -> ())
        p.devices)
    Builtin.all

let test_builtin_find () =
  Alcotest.(check bool) "nmos25" true (Builtin.find "nmos25" <> None);
  Alcotest.(check bool) "unknown" true (Builtin.find "tsmc7" = None)

let test_parser_roundtrip () =
  List.iter
    (fun (p : Process.t) ->
      match Tech_parser.parse_string (Tech_parser.to_string p) with
      | Error e -> Alcotest.failf "%s failed: %s" p.name e.message
      | Ok [ p' ] ->
          Alcotest.(check string) "name" p.name p'.Process.name;
          S.check_float "lambda" p.lambda_microns p'.lambda_microns;
          S.check_float "row" p.row_height p'.row_height;
          Alcotest.(check int) "devices" (List.length p.devices)
            (List.length p'.devices)
      | Ok _ -> Alcotest.fail "expected exactly one process")
    Builtin.all

let test_parser_errors () =
  let expect_error text =
    match Tech_parser.parse_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "lambda 2.5\n";
  expect_error "process p\nlambda 2.5\n";  (* unterminated *)
  expect_error "process p\nprocess q\nend\n";
  expect_error "process p\nlambda zero\nend\n";
  expect_error "process p\nlambda -1\nend\n";
  expect_error "process p\ndevice a bogus 1 1\nend\n";
  expect_error "process p\nwhatever 3\nend\n";
  expect_error "process p\nend\n" (* missing fields *)

let test_parser_comments_and_multi () =
  let text =
    "# two processes\nprocess a\nlambda 1\nrow-height 10\ntrack-pitch 2\n\
     feed-width 2\nport-pitch 2\nmin-spacing 1\ndevice inv gate 4 10\nend\n\
     \nprocess b # trailing comment\nlambda 2\nrow-height 20\ntrack-pitch 4\n\
     feed-width 4\nport-pitch 4\nmin-spacing 2\nend\n"
  in
  match Tech_parser.parse_string text with
  | Error e -> Alcotest.failf "parse failed: line %d: %s" e.line e.message
  | Ok ps ->
      Alcotest.(check int) "two processes" 2 (List.length ps)

let test_registry () =
  let r = Registry.create () in
  Alcotest.(check bool) "builtin present" true (Registry.find r "nmos25" <> None);
  let empty = Registry.create ~builtins:false () in
  Alcotest.(check (list string)) "empty" [] (Registry.names empty);
  begin
    match Registry.load_string empty (Tech_parser.to_string S.nmos) with
    | Ok 1 -> ()
    | Ok n -> Alcotest.failf "loaded %d" n
    | Error e -> Alcotest.failf "load failed: %s" e.Tech_parser.message
  end;
  Alcotest.(check (list string)) "loaded" [ "nmos25" ] (Registry.names empty);
  Alcotest.check_raises "find_exn" Not_found (fun () ->
      ignore (Registry.find_exn empty "zzz"))

(* Every store key digests the fingerprint, so its bytes are pinned.
   [with_devices] starts from an empty cache: a process whose
   fingerprint was already asked for must not pass it on to a copy
   with different kinds. *)
let test_fingerprint () =
  List.iter
    (fun (name, hex) ->
      Alcotest.(check string) (name ^ " fingerprint") hex
        (Process.fingerprint (Builtin.find name |> Option.get)))
    [
      ("nmos25", "29b0c2d3a3cc79fc4e1acd6118eeece7");
      ("cmos20", "310690097bd0f9cf0d7c7ca793a5fc4f");
      ("cmos15", "cfa5150dc60e1584dabcb7e81967ac13");
    ];
  let p = S.nmos in
  Alcotest.(check string) "same devices, same fingerprint" (Process.fingerprint p)
    (Process.fingerprint (Process.with_devices p (List.rev p.devices)));
  let first = List.hd p.devices in
  let other = if first.category = Device_kind.Pad then Device_kind.Storage else Pad in
  List.iter
    (fun (what, (k : Device_kind.t)) ->
      let changed = List.map (fun d -> if d == first then k else d) p.devices in
      Alcotest.(check bool) (what ^ ", new fingerprint") false
        (String.equal (Process.fingerprint p)
           (Process.fingerprint (Process.with_devices p changed))))
    [
      ( "wider kind",
        Device_kind.make ~name:first.name ~category:first.category
          ~width:(first.width +. 1.) ~height:first.height );
      ( "other category",
        Device_kind.make ~name:first.name ~category:other ~width:first.width
          ~height:first.height );
    ]

let fuzz_props =
  let open QCheck2.Gen in
  let junk = string_size ~gen:(char_range ' ' '~') (int_range 0 200) in
  let soup =
    map (String.concat "\n")
      (list_size (int_range 0 20)
         (oneofl
            [ "process p"; "lambda 2.5"; "lambda x"; "row-height 40"; "end";
              "device a gate 1 1"; "device a bogus 1 1"; "track-pitch -1";
              "# comment"; ""; "feed-width 7"; "port-pitch 8";
              "min-spacing 3" ]))
  in
  [
    Mae_test_support.Support.qtest ~count:300 "tech parser total on junk" junk
      (fun text ->
        match Tech_parser.parse_string text with Ok _ | Error _ -> true);
    Mae_test_support.Support.qtest ~count:300 "tech parser total on soup" soup
      (fun text ->
        match Tech_parser.parse_string text with Ok _ | Error _ -> true);
  ]

let () =
  Alcotest.run "tech"
    [
      ( "device_kind",
        [
          Alcotest.test_case "make/area" `Quick test_device_kind;
          Alcotest.test_case "category strings" `Quick test_category_strings;
        ] );
      ( "process",
        [
          Alcotest.test_case "validation" `Quick test_process_validation;
          Alcotest.test_case "lookup" `Quick test_process_lookup;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
        ] );
      ( "builtin",
        [
          Alcotest.test_case "consistency" `Quick test_builtin_consistency;
          Alcotest.test_case "find" `Quick test_builtin_find;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round trip" `Quick test_parser_roundtrip;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "comments/multi" `Quick test_parser_comments_and_multi;
        ] );
      ("registry", [ Alcotest.test_case "basics" `Quick test_registry ]);
      ("fuzz", fuzz_props);
    ]

open Mae_netlist
module S = Mae_test_support.Support

let test_device () =
  let d = Device.make ~index:0 ~name:"u1" ~kind:"inv" ~pins:[| 2; 1; 2 |] in
  Alcotest.(check (list int)) "distinct nets" [ 1; 2 ] (Device.nets d);
  Alcotest.(check bool) "connects" true (Device.connects_to d 2);
  Alcotest.(check bool) "not connects" false (Device.connects_to d 0);
  S.raises_invalid (fun () -> Device.make ~index:(-1) ~name:"x" ~kind:"k" ~pins:[||]);
  S.raises_invalid (fun () -> Device.make ~index:0 ~name:"" ~kind:"k" ~pins:[||])

let test_port () =
  Alcotest.(check bool) "in" true (Port.direction_of_string "in" = Some Port.Input);
  Alcotest.(check bool) "out" true (Port.direction_of_string "out" = Some Port.Output);
  Alcotest.(check bool) "inout" true (Port.direction_of_string "inout" = Some Port.Inout);
  Alcotest.(check bool) "bad" true (Port.direction_of_string "up" = None);
  List.iter
    (fun d ->
      Alcotest.(check bool) "round trip" true
        (Port.direction_of_string (Port.direction_to_string d) = Some d))
    [ Port.Input; Port.Output; Port.Inout ]

let test_circuit_validation () =
  let net i name = Net.make ~index:i ~name in
  (* pin referencing a nonexistent net *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"nmos25"
        ~devices:[ Device.make ~index:0 ~name:"u" ~kind:"inv" ~pins:[| 5 |] ]
        ~nets:[ net 0 "a" ] ~ports:[]);
  (* non-dense device indices *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t"
        ~devices:[ Device.make ~index:1 ~name:"u" ~kind:"inv" ~pins:[||] ]
        ~nets:[] ~ports:[]);
  (* duplicate net names *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t" ~devices:[]
        ~nets:[ net 0 "a"; net 1 "a" ] ~ports:[]);
  (* port referencing bad net *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t" ~devices:[] ~nets:[]
        ~ports:[ Port.make ~name:"p" ~direction:Port.Input ~net:0 ])

let test_circuit_connectivity () =
  let c = S.tiny () in
  Alcotest.(check int) "devices" 2 (Circuit.device_count c);
  Alcotest.(check int) "nets" 3 (Circuit.net_count c);
  Alcotest.(check int) "ports" 2 (Circuit.port_count c);
  let m = Option.get (Circuit.find_net c "m") in
  Alcotest.(check int) "m degree" 2 (Circuit.degree c m.Net.index);
  Alcotest.(check bool) "m devices" true
    (Circuit.devices_on_net c m.Net.index = [| 0; 1 |]);
  let a = Option.get (Circuit.find_net c "a") in
  Alcotest.(check int) "a degree" 1 (Circuit.degree c a.Net.index);
  Alcotest.(check bool) "a is port net" true (Circuit.is_port_net c a.Net.index);
  Alcotest.(check bool) "m not port net" false (Circuit.is_port_net c m.Net.index);
  let i1 = Option.get (Circuit.find_device c "i1") in
  Alcotest.(check (list int)) "i1 nets"
    [ a.Net.index; m.Net.index ]
    (List.sort Int.compare (Circuit.nets_of_device c i1.Device.index));
  S.raises_invalid (fun () -> ignore (Circuit.degree c 99))

let test_builder_net_reuse () =
  let b = Builder.create ~name:"x" ~technology:"t" in
  let n1 = Builder.net b "w" in
  let n2 = Builder.net b "w" in
  Alcotest.(check int) "same net" n1 n2;
  ignore (Builder.add_device b ~name:"d1" ~kind:"inv" ~nets:[ "w"; "w2" ]);
  S.raises_invalid (fun () ->
      ignore (Builder.add_device b ~name:"d1" ~kind:"inv" ~nets:[ "w" ]));
  Builder.add_port b ~name:"p" ~direction:Port.Input ~net:"w";
  S.raises_invalid (fun () ->
      Builder.add_port b ~name:"p" ~direction:Port.Output ~net:"w2");
  let c = Builder.build b in
  Alcotest.(check int) "nets created on demand" 2 (Circuit.net_count c)

(* Stats: the paper's parameters on a known circuit. *)

let test_stats_equation_one () =
  (* full adder: 2 xor2 (24L) + 3 nand2 (12L); W_avg = (2*24+3*12)/5 *)
  let stats = Stats.compute S.full_adder S.nmos in
  Alcotest.(check int) "N" 5 stats.device_count;
  Alcotest.(check int) "H" 8 stats.net_count;
  Alcotest.(check int) "ports" 5 stats.port_count;
  S.check_float "W_avg (equation 1)" ((2. *. 24.) +. (3. *. 12.) |> fun t -> t /. 5.)
    stats.average_width;
  S.check_float "h_avg" 40. stats.average_height;
  S.check_float "cell area" (((2. *. 24.) +. (3. *. 12.)) *. 40.)
    stats.total_device_area;
  (* width classes: 3 devices of 12L, 2 of 24L *)
  Alcotest.(check bool) "classes" true
    (stats.width_classes = [ (12., 3); (24., 2) ])

let test_stats_degree_histogram () =
  let stats = Stats.compute S.full_adder S.nmos in
  (* nets: a(2: x1,g1), b(2), cin(2: x2,g2), p(3: x1,x2,g2), s(1),
     g(2), h(2), cout(1) -> y_1=2, y_2=5, y_3=1 *)
  Alcotest.(check bool) "histogram" true
    (stats.degree_histogram = [ (1, 2); (2, 5); (3, 1) ]);
  Alcotest.(check int) "max degree" 3 stats.max_degree

let test_stats_unknown_kind () =
  let b = Builder.create ~name:"bad" ~technology:"nmos25" in
  ignore (Builder.add_device b ~name:"u" ~kind:"warpcore" ~nets:[ "x" ]);
  let c = Builder.build b in
  Alcotest.check_raises "unknown kind" (Stats.Unknown_kind "warpcore")
    (fun () -> ignore (Stats.compute c S.nmos))

let test_validate () =
  let b = Builder.create ~name:"v" ~technology:"nmos25" in
  ignore (Builder.add_device b ~name:"u1" ~kind:"inv" ~nets:[ "a"; "b" ]);
  ignore (Builder.add_device b ~name:"u2" ~kind:"mystery" ~nets:[ "b"; "c" ]);
  ignore (Builder.net b "orphan");
  let c = Builder.build b in
  let issues = Validate.check c S.nmos in
  let has pred = List.exists pred issues in
  Alcotest.(check bool) "unknown kind" true
    (has (function
      | Validate.Unknown_device_kind { kind = "mystery"; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "dangling" true
    (has (function Validate.Dangling_net { net = "orphan" } -> true | _ -> false));
  Alcotest.(check bool) "single pin a" true
    (has (function Validate.Single_pin_net { net = "a" } -> true | _ -> false));
  Alcotest.(check bool) "no ports" true
    (has (function Validate.No_ports -> true | _ -> false));
  (* errors sort first *)
  begin
    match issues with
    | first :: _ -> Alcotest.(check bool) "errors first" true (Validate.is_error first)
    | [] -> Alcotest.fail "expected issues"
  end;
  let empty = Builder.build (Builder.create ~name:"e" ~technology:"nmos25") in
  Alcotest.(check bool) "no devices" true
    (List.exists
       (function Validate.No_devices -> true | _ -> false)
       (Validate.check empty S.nmos))

let test_validate_clean_circuit () =
  let issues = Validate.check S.full_adder S.nmos in
  Alcotest.(check bool) "no errors" true
    (not (List.exists Validate.is_error issues))

(* Properties *)

let props =
  let open QCheck2.Gen in
  let circuit_gen =
    map
      (fun (seed, devices) ->
        Mae_workload.Random_circuit.generate ~rng:(S.rng seed)
          {
            Mae_workload.Random_circuit.default_params with
            devices;
            primary_outputs = Stdlib.min 8 devices;
          })
      (pair int (int_range 1 80))
  in
  [
    S.qtest "sum of degrees = sum of distinct device-net incidences"
      circuit_gen
      (fun c ->
        let by_nets = ref 0 in
        for n = 0 to Circuit.net_count c - 1 do
          by_nets := !by_nets + Circuit.degree c n
        done;
        let by_devices = ref 0 in
        for d = 0 to Circuit.device_count c - 1 do
          by_devices := !by_devices + List.length (Circuit.nets_of_device c d)
        done;
        !by_nets = !by_devices);
    S.qtest "histogram counts all connected nets" circuit_gen (fun c ->
        let stats = Stats.compute c S.nmos in
        let histogram_total =
          List.fold_left (fun acc (_, y) -> acc + y) 0 stats.degree_histogram
        in
        let connected = ref 0 in
        for n = 0 to Circuit.net_count c - 1 do
          if Circuit.degree c n >= 1 then incr connected
        done;
        histogram_total = !connected);
    S.qtest "average width within min/max class" circuit_gen (fun c ->
        let stats = Stats.compute c S.nmos in
        match stats.width_classes with
        | [] -> true
        | (first, _) :: _ ->
            let last, _ = List.nth stats.width_classes
                (List.length stats.width_classes - 1) in
            stats.average_width >= first -. 1e-9
            && stats.average_width <= last +. 1e-9);
  ]

(* --- canonicalization: the estimate store's keying property --- *)

(* Rebuild [c] with nets, devices and ports entered in a shuffled order:
   structurally identical, construction-order different. *)
let random_circuit seed =
  Mae_workload.Random_circuit.generate
    ~name:(Printf.sprintf "canon%d" seed)
    ~rng:(S.rng seed)
    { Mae_workload.Random_circuit.default_params with devices = 30 }

let canonical_props =
  let open QCheck2.Gen in
  [
    S.qtest ~count:100 "construction order does not change the digest"
      (pair int int)
      (fun (seed, perm_seed) ->
        let c = random_circuit (abs seed mod 1000) in
        let c' = S.rebuild_permuted ~rng:(S.rng perm_seed) c in
        String.equal (Canonical.digest c) (Canonical.digest c'));
    S.qtest ~count:100 "structural mutations change the digest" (pair int int)
      (fun (seed, which) ->
        let c = random_circuit (abs seed mod 1000) in
        let d = Canonical.digest c in
        let mutated =
          match abs which mod 4 with
          | 0 -> Mae_workload.Mutate.add_device c ~kind:"inv" ~nets:[ "n0" ]
          | 1 ->
              Mae_workload.Mutate.drop_device c
                ~index:(abs which mod Circuit.device_count c)
          | 2 -> Mae_workload.Mutate.duplicate c
          | _ ->
              Mae_workload.Mutate.widen_net c
                ~net:c.nets.(abs seed mod Circuit.net_count c).Net.name
                ~extra:1 ~kind:"inv"
        in
        not (String.equal d (Canonical.digest mutated)));
  ]

let test_canonical_is_structural () =
  (* two independently built but identical tiny circuits *)
  let a = S.tiny () and b = S.tiny () in
  Alcotest.(check string) "same structure, same digest" (Canonical.digest a)
    (Canonical.digest b);
  (* entering nets in the opposite order changes nothing *)
  let b2 = Builder.create ~name:"tiny" ~technology:"nmos25" in
  ignore (Builder.net b2 "y");
  ignore (Builder.net b2 "m");
  ignore (Builder.net b2 "a");
  ignore (Builder.add_device b2 ~name:"i2" ~kind:"inv" ~nets:[ "m"; "y" ]);
  ignore (Builder.add_device b2 ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  Builder.add_port b2 ~name:"y" ~direction:Port.Output ~net:"y";
  Builder.add_port b2 ~name:"a" ~direction:Port.Input ~net:"a";
  Alcotest.(check string) "reversed construction, same digest"
    (Canonical.digest a)
    (Canonical.digest (Builder.build b2));
  (* but rewiring a pin is a different circuit *)
  let b3 = Builder.create ~name:"tiny" ~technology:"nmos25" in
  Builder.add_port b3 ~name:"a" ~direction:Port.Input ~net:"a";
  Builder.add_port b3 ~name:"y" ~direction:Port.Output ~net:"y";
  ignore (Builder.add_device b3 ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  ignore (Builder.add_device b3 ~name:"i2" ~kind:"inv" ~nets:[ "y"; "m" ]);
  Alcotest.(check bool) "rewired pins, different digest" false
    (String.equal (Canonical.digest a) (Canonical.digest (Builder.build b3)))

let () =
  Alcotest.run "netlist"
    [
      ("device", [ Alcotest.test_case "basics" `Quick test_device ]);
      ("port", [ Alcotest.test_case "directions" `Quick test_port ]);
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "connectivity" `Quick test_circuit_connectivity;
        ] );
      ("builder", [ Alcotest.test_case "net reuse" `Quick test_builder_net_reuse ]);
      ( "stats",
        [
          Alcotest.test_case "equation 1" `Quick test_stats_equation_one;
          Alcotest.test_case "degree histogram" `Quick test_stats_degree_histogram;
          Alcotest.test_case "unknown kind" `Quick test_stats_unknown_kind;
        ] );
      ( "validate",
        [
          Alcotest.test_case "issues" `Quick test_validate;
          Alcotest.test_case "clean" `Quick test_validate_clean_circuit;
        ] );
      ( "canonical",
        Alcotest.test_case "digest is structural" `Quick
          test_canonical_is_structural
        :: canonical_props );
      ("properties", props);
    ]

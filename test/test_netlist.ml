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

(* Every Circuit.make failure keeps its message, and the checks keep
   their order: dense indices, then unique names, then net ranges. *)
let test_circuit_make_messages () =
  let net i name = Net.make ~index:i ~name in
  let dev i name pins = Device.make ~index:i ~name ~kind:"inv" ~pins in
  let port name n = Port.make ~name ~direction:Port.Input ~net:n in
  let expect message ?(name = "c") devices nets ports =
    Alcotest.check_raises message (Invalid_argument message) (fun () ->
        ignore (Circuit.make ~name ~technology:"t" ~devices ~nets ~ports));
    Alcotest.check_raises ("of_arrays: " ^ message) (Invalid_argument message)
      (fun () ->
        ignore
          (Circuit.of_arrays ~name ~technology:"t" ~devices:(Array.of_list devices)
             ~nets:(Array.of_list nets) ~ports:(Array.of_list ports)))
  in
  expect "Circuit.make: empty name" ~name:"" [ dev 1 "u" [||] ] [] [];
  expect "Circuit.make: device index 1 at position 0" [ dev 1 "u" [||] ] [] [];
  expect "Circuit.make: net index 0 at position 1"
    [ dev 0 "u" [||] ] [ net 0 "a"; net 0 "b" ] [];
  expect "Circuit.make: device index 0 at position 1"
    [ dev 0 "u" [||]; dev 0 "u" [||] ] [ net 0 "a"; net 0 "b" ] [];
  expect "Circuit.make: duplicate device name u"
    [ dev 0 "u" [| 7 |]; dev 1 "u" [||] ] [ net 0 "a"; net 1 "a" ] [];
  expect "Circuit.make: duplicate net name a"
    [ dev 0 "u" [| 7 |] ] [ net 0 "a"; net 1 "a" ] [ port "p" 0; port "p" 0 ];
  expect "Circuit.make: duplicate port name p"
    [ dev 0 "u" [| 7 |] ] [ net 0 "a" ] [ port "p" 0; port "p" 9 ];
  expect "Circuit.make: device v references net 5"
    [ dev 0 "u" [| 0 |]; dev 1 "v" [| 0; 5; 6 |] ] [ net 0 "a" ] [ port "p" 9 ];
  expect "Circuit.make: port q references net 1"
    [ dev 0 "u" [| 0 |] ] [ net 0 "a" ] [ port "p" 0; port "q" 1 ];
  (* the builder's own duplicate checks *)
  let b = Builder.create ~name:"b" ~technology:"t" in
  ignore (Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a" ]);
  Alcotest.check_raises "builder device"
    (Invalid_argument "Builder.add_device: duplicate instance u") (fun () ->
      ignore (Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a" ]));
  Builder.add_port b ~name:"p" ~direction:Port.Input ~net:"a";
  Alcotest.check_raises "builder port"
    (Invalid_argument "Builder.add_port: duplicate port p") (fun () ->
      Builder.add_port b ~name:"p" ~direction:Port.Output ~net:"b")

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

(* --- kind resolution: Stats.device_kinds against a per-device lookup --- *)

(* [c] with every device's kind string a fresh copy, so no two devices
   share one physically. *)
let fresh_kinds (c : Circuit.t) =
  Circuit.of_arrays ~name:c.name ~technology:c.technology
    ~devices:
      (Array.map
         (fun (d : Device.t) ->
           Device.make ~index:d.index ~name:d.name
             ~kind:(String.init (String.length d.kind) (String.get d.kind))
             ~pins:d.pins)
         c.devices)
    ~nets:c.nets ~ports:c.ports

let oracle_kinds (c : Circuit.t) process =
  Array.map (fun (d : Device.t) -> Mae_tech.Process.find_device process d.kind) c.devices

(* The per-device lookup, raising on the first unknown kind in device
   order. *)
let oracle_known (c : Circuit.t) process =
  Array.map
    (fun (d : Device.t) ->
      match Mae_tech.Process.find_device process d.kind with
      | Some k -> k
      | None -> raise (Stats.Unknown_kind d.kind))
    c.devices

(* Stats.compute the plain way: one lookup per device, widths sorted
   and grouped, every sum in device order, each net's widths folded
   over its members as Fullcustom.net_areas once did. *)
let oracle_stats (c : Circuit.t) process : Stats.t =
  let kinds = oracle_known c process in
  let n = Array.length kinds in
  let sum f = Array.fold_left (fun acc k -> acc +. f k) 0. kinds in
  let mean f = if n = 0 then 0. else sum f /. Float.of_int n in
  let group sorted =
    List.fold_left
      (fun acc x ->
        match acc with
        | (y, k) :: rest when y = x -> (y, k + 1) :: rest
        | _ -> (x, 1) :: acc)
      [] sorted
    |> List.rev
  in
  let widths =
    List.sort Float.compare
      (Array.to_list (Array.map (fun (k : Mae_tech.Device_kind.t) -> k.width) kinds))
  in
  let degrees =
    List.filter (fun d -> d >= 1)
      (List.init (Circuit.net_count c) (Circuit.degree c))
  in
  {
    device_count = n;
    net_count = Circuit.net_count c;
    port_count = Circuit.port_count c;
    width_classes = group widths;
    average_width = mean (fun k -> k.width);
    average_height = mean (fun k -> k.height);
    total_device_area = sum Mae_tech.Device_kind.area;
    degree_histogram = group (List.sort Int.compare degrees);
    max_degree = List.fold_left Stdlib.max 0 degrees;
    net_degrees = Array.init (Circuit.net_count c) (Circuit.degree c);
    net_widths =
      Array.init (Circuit.net_count c) (fun i ->
          Array.fold_left
            (fun acc d -> acc +. kinds.(d).Mae_tech.Device_kind.width)
            0. (Circuit.devices_on_net c i));
  }

let outcome f = match f () with x -> Ok x | exception Stats.Unknown_kind k -> Error k

let unknown_kinds issues =
  List.filter_map
    (function
      | Validate.Unknown_device_kind { device; kind } -> Some (device, kind)
      | _ -> None)
    issues

(* Every kind-reading function agrees with the per-device oracle on [c]
   under [process]: the same records, widths, issues and verdict, or
   the same first unknown kind. *)
let kinds_agree (c : Circuit.t) process =
  Stats.device_kinds c process = oracle_kinds c process
  && outcome (fun () -> Stats.compute c process)
     = outcome (fun () -> oracle_stats c process)
  && outcome (fun () -> Stats.device_widths c process)
     = outcome (fun () ->
           Array.map (fun (k : Mae_tech.Device_kind.t) -> k.width) (oracle_known c process))
  && unknown_kinds (Validate.check c process)
     = List.filter_map
         (fun (d : Device.t) ->
           match Mae_tech.Process.find_device process d.kind with
           | None -> Some (d.name, d.kind)
           | Some _ -> None)
         (Array.to_list c.devices)
  && Mae.Methodology.all_transistors c process
     = Array.for_all
         (function
           | Some k -> Mae_tech.Device_kind.is_transistor k | None -> false)
         (oracle_kinds c process)

let kind_circuits =
  let module G = Mae_workload.Generators in
  let gate_level =
    List.concat_map
      (fun technology ->
        [ G.full_adder ~technology (); G.counter ~technology 4; G.alu ~technology 3;
          G.multiplier ~technology 3; G.pass_chain ~technology 4;
          G.inverter_chain ~technology 3;
          Mae_workload.Random_circuit.generate ~rng:(S.rng 5)
            { Mae_workload.Random_circuit.default_params with devices = 60; technology } ])
      [ "nmos25"; "cmos20" ]
  in
  gate_level
  @ List.map Mae_workload.Bench_circuits.flatten
      [ G.full_adder (); G.counter 4; G.multiplier 3 ]

let test_kinds_shared () =
  List.iter
    (fun (c : Circuit.t) ->
      List.iter
        (fun process ->
          if not (kinds_agree c process) then
            Alcotest.failf "%s under %s: kinds disagree with the oracle" c.name
              process.Mae_tech.Process.name)
        Mae_tech.Builtin.all)
    kind_circuits

let test_kinds_fresh () =
  List.iter
    (fun (c : Circuit.t) ->
      let fresh = fresh_kinds c in
      Alcotest.(check bool) "no kind string shared" false
        (Array.length fresh.devices > 1
        && fresh.devices.(0).kind == fresh.devices.(1).kind);
      List.iter
        (fun process ->
          if not (kinds_agree fresh process) then
            Alcotest.failf "%s (fresh kinds) under %s: kinds disagree with the oracle"
              c.name process.Mae_tech.Process.name)
        Mae_tech.Builtin.all)
    kind_circuits

let test_kinds_first_unknown () =
  let b = Builder.create ~name:"mixed" ~technology:"nmos25" in
  List.iteri
    (fun i kind ->
      ignore (Builder.add_device b ~name:(Printf.sprintf "u%d" i) ~kind ~nets:[ "a"; "b" ]))
    [ "inv"; "nenh"; "alien1"; "nand2"; "alien2"; "alien1" ];
  let c = Builder.build b in
  List.iter
    (fun c ->
      Alcotest.check_raises "compute" (Stats.Unknown_kind "alien1") (fun () ->
          ignore (Stats.compute c S.nmos));
      Alcotest.check_raises "device_widths" (Stats.Unknown_kind "alien1") (fun () ->
          ignore (Stats.device_widths c S.nmos));
      Alcotest.(check (list (pair string string)))
        "validate" [ ("u2", "alien1"); ("u4", "alien2"); ("u5", "alien1") ]
        (unknown_kinds (Validate.check c S.nmos));
      Alcotest.(check bool) "not all transistors" false
        (Mae.Methodology.all_transistors c S.nmos))
    [ c; fresh_kinds c ]

(* Devices draw their kinds from known gates and transistors of both
   processes and unknown names, each string either shared with every
   device of that kind or a fresh copy. *)
let kinds_prop =
  let open QCheck2.Gen in
  let kind =
    map2
      (fun k fresh -> if fresh then String.init (String.length k) (String.get k) else k)
      (oneofl [ "inv"; "nand2"; "dff"; "nenh"; "ndep"; "pmos"; "alien"; "nan"; "inv2" ])
      bool
  in
  let circuit =
    map
      (fun kinds ->
        let b = Builder.create ~name:"kinds" ~technology:"t" in
        List.iteri
          (fun i kind ->
            ignore
              (Builder.add_device b ~name:(Printf.sprintf "u%d" i) ~kind
                 ~nets:[ Printf.sprintf "n%d" (i mod 3); "z" ]))
          kinds;
        Builder.build b)
      (list_size (int_range 0 24) kind)
  in
  S.qtest ~count:500 "device_kinds = per-device lookup" (pair circuit (oneofl Mae_tech.Builtin.all))
    (fun (c, process) -> kinds_agree c process)

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

(* --- the length-prefixed stream against the quoted text form --- *)

module Oracle = Mae_test_support.Canonical_oracle

(* Two circuits render equal in the stream exactly when they render
   equal in the text form: both are injective images of the same
   name-sorted structure. *)
let same_verdict (a, b) =
  Bool.equal
    (String.equal (Oracle.to_string a) (Oracle.to_string b))
    (String.equal (Canonical.to_string a) (Canonical.to_string b))

(* Names that quoting had to guard against, and names that concatenate
   into one another ("a" ^ "bc" = "ab" ^ "c"). *)
let hostile_names =
  [ "a"; "b"; "c"; "ab"; "bc"; "abc"; "\""; "\\"; "\\\""; "\n"; "\000"; "a\000b";
    "0"; "1"; "01"; "10"; "a b"; " "; "\"\""; "pins"; "kind"; "net"; "device";
    "in"; "out"; "\255"; "\r\n" ]

(* A small circuit whose every name comes from [hostile_names].  Two
   drawn independently are rarely equal; [edited_pair] below supplies
   equal and near-equal pairs. *)
let hostile_circuit =
  let open QCheck2.Gen in
  let name = oneofl hostile_names in
  let distinct = map (List.sort_uniq String.compare) (list_size (int_range 1 5) name) in
  distinct >>= fun nets ->
  let nn = List.length nets in
  distinct >>= fun devices ->
  list_repeat (List.length devices)
    (pair name (array_size (int_range 0 3) (int_range 0 (nn - 1))))
  >>= fun kinds_pins ->
  map (List.sort_uniq (fun (a, _, _) (b, _, _) -> String.compare a b))
    (list_size (int_range 0 3)
       (triple name (oneofl [ Port.Input; Port.Output; Port.Inout ]) (int_range 0 (nn - 1))))
  >>= fun ports ->
  map2
    (fun cname tech ->
      Circuit.make ~name:cname ~technology:tech
        ~devices:
          (List.mapi
             (fun i (dname, (kind, pins)) -> Device.make ~index:i ~name:dname ~kind ~pins)
             (List.combine devices kinds_pins))
        ~nets:(List.mapi (fun i n -> Net.make ~index:i ~name:n) nets)
        ~ports:(List.map (fun (n, direction, net) -> Port.make ~name:n ~direction ~net) ports))
    (oneofl [ "a"; "ab"; "\"" ]) (oneofl [ "bc"; "c"; "\"" ])

(* One random circuit and a variant: itself, a permuted rebuild, or one
   of the four mutations, each possibly rebuilt permuted too. *)
let variant_pair =
  let open QCheck2.Gen in
  map
    (fun (seed, which, perm) ->
      let c = random_circuit (abs seed mod 1000) in
      let permute c = S.rebuild_permuted ~rng:(S.rng perm) c in
      let v =
        match abs which mod 6 with
        | 0 -> c
        | 1 -> permute c
        | 2 -> Mae_workload.Mutate.add_device c ~kind:"inv" ~nets:[ "n0" ]
        | 3 -> Mae_workload.Mutate.drop_device c ~index:(abs which mod Circuit.device_count c)
        | 4 -> Mae_workload.Mutate.duplicate c
        | _ ->
            Mae_workload.Mutate.widen_net c
              ~net:c.nets.(abs perm mod Circuit.net_count c).Net.name
              ~extra:1 ~kind:"inv"
      in
      (c, if perm mod 2 = 0 then v else permute v))
    (triple int int int)

(* A near miss of [c]: a device renamed or re-kinded from the hostile
   pool, or a name pair -- a device's name and kind, or the circuit's
   name and technology -- split at another point of its concatenation.
   An edit that would duplicate a name leaves [c] as it was. *)
let edit (c : Circuit.t) (which, i, name, cut) =
  let resplit a b =
    let s = a ^ b in
    let k = 1 + (cut mod (String.length s - 1)) in
    (String.sub s 0 k, String.sub s k (String.length s - k))
  in
  let devices = Array.copy c.devices in
  let nd = Array.length devices in
  let cname, tech =
    if which mod 4 = 3 || nd = 0 then resplit c.name c.technology
    else begin
      let d = devices.(i mod nd) in
      let dname, kind =
        match which mod 4 with
        | 0 -> (name, d.kind)
        | 1 -> (d.name, name)
        | _ -> resplit d.name d.kind
      in
      devices.(i mod nd) <- Device.make ~index:d.index ~name:dname ~kind ~pins:d.pins;
      (c.name, c.technology)
    end
  in
  match
    Circuit.of_arrays ~name:cname ~technology:tech ~devices ~nets:(Array.copy c.nets)
      ~ports:(Array.copy c.ports)
  with
  | c' -> c'
  | exception Invalid_argument _ -> c

let edited_pair =
  let open QCheck2.Gen in
  hostile_circuit >>= fun c ->
  map2
    (fun edits perm ->
      let c' = List.fold_left edit c edits in
      (c, if perm mod 2 = 0 then c' else S.rebuild_permuted ~rng:(S.rng perm) c'))
    (list_size (int_range 0 2) (quad nat nat (oneofl hostile_names) nat))
    int

let oracle_props =
  let open QCheck2.Gen in
  [
    S.qtest ~count:300 "stream = text on random circuits and variants" variant_pair
      same_verdict;
    S.qtest ~count:300 "stream = text on pairs of random circuits"
      (pair int int)
      (fun (a, b) -> same_verdict (random_circuit (abs a mod 50), random_circuit (abs b mod 50)));
    S.qtest ~count:1000 "stream = text on hostile names" (pair hostile_circuit hostile_circuit)
      same_verdict;
    S.qtest ~count:2000 "stream = text on hostile near misses" edited_pair same_verdict;
  ]

let test_canonical_concatenations () =
  let circuit ?(name = "c") ?(technology = "t") devices =
    Circuit.make ~name ~technology
      ~devices:
        (List.mapi (fun i (name, kind) -> Device.make ~index:i ~name ~kind ~pins:[| 0 |]) devices)
      ~nets:[ Net.make ~index:0 ~name:"n" ] ~ports:[]
  in
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check bool) (what ^ ": text differs") false
        (String.equal (Oracle.to_string a) (Oracle.to_string b));
      Alcotest.(check bool) (what ^ ": stream differs") false
        (String.equal (Canonical.to_string a) (Canonical.to_string b)))
    [
      ("device a kind bc vs ab/c", circuit [ ("a", "bc") ], circuit [ ("ab", "c") ]);
      ( "circuit a tech bc vs ab/c",
        circuit ~name:"a" ~technology:"bc" [],
        circuit ~name:"ab" ~technology:"c" [] );
      ("quote in a name", circuit [ ("a\"", "b") ], circuit [ ("a", "\"b") ]);
      ("NUL in a name", circuit [ ("a\000", "b") ], circuit [ ("a", "\000b") ]);
      ("two devices vs one", circuit [ ("a", "b"); ("c", "d") ], circuit [ ("a", "bcd") ]);
    ];
  (* without the pin count, a rank could be read as the next device's
     name length: these two would render alike *)
  let nets = List.init 5 (fun i -> Net.make ~index:i ~name:(Printf.sprintf "n%d" i)) in
  let two (n1, k1, p1) (n2, k2, p2) =
    Circuit.make ~name:"c" ~technology:"t" ~nets ~ports:[]
      ~devices:
        [ Device.make ~index:0 ~name:n1 ~kind:k1 ~pins:p1;
          Device.make ~index:1 ~name:n2 ~kind:k2 ~pins:p2 ]
  in
  let a = two ("\000", "k", [| 4 |]) ("\001\000\000\000x", "\002\000\000\000", [||])
  and b = two ("\000", "k", [||]) ("\005\000\000\000", "x", [| 4; 2 |]) in
  Alcotest.(check bool) "pin ranks vs name lengths: text differs" false
    (String.equal (Oracle.to_string a) (Oracle.to_string b));
  Alcotest.(check bool) "pin ranks vs name lengths: stream differs" false
    (String.equal (Canonical.to_string a) (Canonical.to_string b))

let test_canonical_header () =
  let s = Canonical.to_string (S.tiny ()) in
  Alcotest.(check string) "header" "mae-canonical 2\n" (String.sub s 0 16)

(* [net_devices.(n)] is, by definition, the distinct devices with a pin
   on [n], ascending; random circuits where a device may repeat a net
   across its pins. *)
let net_devices_prop =
  let open QCheck2.Gen in
  let circuit =
    int_range 1 12 >>= fun nets ->
    map
      (fun pins -> (nets, pins))
      (list_size (int_range 0 25)
         (map Array.of_list (list_size (int_range 0 6) (int_range 0 (nets - 1)))))
  in
  S.qtest ~count:500 "net_devices = sorted distinct" circuit (fun (nets, pins) ->
      let c =
        Circuit.make ~name:"r" ~technology:"t"
          ~devices:
            (List.mapi
               (fun i pins -> Device.make ~index:i ~name:(string_of_int i) ~kind:"k" ~pins)
               pins)
          ~nets:(List.init nets (fun i -> Net.make ~index:i ~name:(string_of_int i)))
          ~ports:[]
      in
      List.for_all
        (fun n ->
          let expected =
            List.sort_uniq Int.compare
              (List.concat
                 (List.mapi (fun d p -> if Array.mem n p then [ d ] else []) pins))
          in
          Array.to_list (Circuit.devices_on_net c n) = expected)
        (List.init nets Fun.id))

(* Intern against a stdlib-Hashtbl model: name sequences with
   duplicates, NUL bytes, growth from the smallest table through several
   slot-array doublings, fresh id spaces, and spans interned in place.
   Each run lists every id it handed out and, at each reset and at the
   end, the space's names. *)
type intern_op = Name of string | Span of string | Reset

let intern_ops =
  let open QCheck2.Gen in
  let name =
    oneof
      [ oneofl [ "a"; "b"; "a[1]"; ""; "\000a"; "a\000" ];
        string_size (int_range 0 12);
        map string_of_int (int_range 0 400) ]
  in
  list_size (int_range 0 1000)
    (frequency
       [ (60, map (fun s -> Name s) name);
         (30, map (fun s -> Span s) name);
         (1, pure Reset) ])

let intern_run ?seed ops =
  let t = Intern.create ?seed 1 in
  let space () =
    let names = Intern.names t in
    if Array.to_list names <> List.init (Intern.count t) (Intern.name t) then
      QCheck2.Test.fail_report "names and name disagree";
    Array.iteri
      (fun id n -> if Intern.find t n <> id then QCheck2.Test.fail_report "find")
      names;
    `Space names
  in
  let ids =
    List.map
      (function
        | Name s -> `Id (Intern.intern t s)
        | Span s ->
            let h = String.fold_left (Intern.step t) 1 s in
            `Id (Intern.intern_sub t ("<" ^ s ^ ">") 1 (1 + String.length s) h)
        | Reset ->
            let names = space () in
            Intern.reset t;
            if Intern.find t "a" <> -1 then QCheck2.Test.fail_report "reset";
            names)
      ops
  in
  ids @ [ space () ]

let intern_model ops =
  let ids = Hashtbl.create 8 and order = ref [] in
  let id s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids s i;
        order := s :: !order;
        i
  in
  let space () = `Space (Array.of_list (List.rev !order)) in
  let steps =
    List.map
      (function
        | Name s | Span s -> `Id (id s)
        | Reset ->
            let names = space () in
            Hashtbl.reset ids;
            order := [];
            names)
      ops
  in
  steps @ [ space () ]

let intern_props =
  [
    S.qtest ~count:300 "Intern = Hashtbl model" intern_ops (fun ops ->
        intern_run ops = intern_model ops);
    S.qtest ~count:100 "two seeds give the same ids"
      QCheck2.Gen.(triple int int intern_ops)
      (fun (a, b, ops) -> intern_run ~seed:a ops = intern_run ~seed:b ops);
  ]

let () =
  Alcotest.run "netlist"
    [
      ("device", [ Alcotest.test_case "basics" `Quick test_device ]);
      ("port", [ Alcotest.test_case "directions" `Quick test_port ]);
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "connectivity" `Quick test_circuit_connectivity;
          Alcotest.test_case "make messages" `Quick test_circuit_make_messages;
          net_devices_prop;
        ] );
      ("builder", [ Alcotest.test_case "net reuse" `Quick test_builder_net_reuse ]);
      ("intern", intern_props);
      ( "stats",
        [
          Alcotest.test_case "equation 1" `Quick test_stats_equation_one;
          Alcotest.test_case "degree histogram" `Quick test_stats_degree_histogram;
          Alcotest.test_case "unknown kind" `Quick test_stats_unknown_kind;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "shared kind strings" `Quick test_kinds_shared;
          Alcotest.test_case "fresh kind strings" `Quick test_kinds_fresh;
          Alcotest.test_case "first unknown kind" `Quick test_kinds_first_unknown;
          kinds_prop;
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
      ( "oracle",
        Alcotest.test_case "header" `Quick test_canonical_header
        :: Alcotest.test_case "concatenated names" `Quick test_canonical_concatenations
        :: oracle_props );
      ("properties", props);
    ]

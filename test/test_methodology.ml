(* The methodology registry: the estimator set every layer selects from.

   Covers registration (all eight estimators present), bit-for-bit
   agreement between registry runs and the direct estimator calls, the
   gate-array and baseline paths end-to-end through the driver and the
   batch engine (including cross-jobs determinism), and the typed error
   surface (unknown methods, per-method failure isolation). *)

module S = Mae_test_support.Support

let () = Mae_baselines.Methods.ensure_registered ()

let all_names =
  [
    "stdcell"; "fullcustom-exact"; "fullcustom-average"; "gatearray"; "naive";
    "champ"; "pla"; "plest";
  ]

let test_all_registered () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Option.is_some (Mae.Methodology.find name)))
    all_names;
  (* names () lists registration order: core four first, then baselines *)
  Alcotest.(check (list string)) "registry names" all_names
    (Mae.Methodology.names ());
  Alcotest.(check (list string))
    "default set" [ "stdcell"; "fullcustom-exact"; "fullcustom-average" ]
    Mae.Methodology.default_names

let test_selection_parsing () =
  (match Mae.Methodology.selection_of_string "default" with
  | Ok names ->
      Alcotest.(check (list string)) "default alias"
        Mae.Methodology.default_names names
  | Error e -> Alcotest.failf "default alias: %s" e);
  (match Mae.Methodology.selection_of_string "all" with
  | Ok names -> Alcotest.(check (list string)) "all alias" all_names names
  | Error e -> Alcotest.failf "all alias: %s" e);
  (match Mae.Methodology.selection_of_string "gatearray, naive" with
  | Ok names ->
      Alcotest.(check (list string)) "spaces tolerated"
        [ "gatearray"; "naive" ] names
  | Error e -> Alcotest.failf "pair: %s" e);
  Alcotest.(check bool) "empty set rejected" true
    (Result.is_error (Mae.Methodology.selection_of_string ""));
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Mae.Methodology.selection_of_string "stdcell,zzz"))

let registry = Mae_tech.Registry.create ()

let report_of ?methods circuit =
  match Mae.Driver.run_circuit ~registry ?methods circuit with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "driver: %s" (Format.asprintf "%a" Mae.Driver.pp_error e)

(* the registry's default set must reproduce the direct estimator calls
   bit for bit: same stats sharing, same functions, same order *)
let test_default_bit_for_bit () =
  let circuit = S.full_adder_tx in
  let process = Mae_tech.Builtin.nmos25 in
  let r = report_of circuit in
  let stats = Mae_netlist.Stats.compute circuit process in
  let direct_sc = Mae.Stdcell.estimate_auto ~stats circuit process in
  let direct_exact, direct_avg =
    Mae.Fullcustom.estimate_both ~stats circuit process
  in
  let sc = Option.get (Mae.Driver.stdcell r) in
  let fce = Option.get (Mae.Driver.fullcustom_exact r) in
  let fca = Option.get (Mae.Driver.fullcustom_average r) in
  let bits = Int64.bits_of_float in
  Alcotest.(check bool) "stdcell bit-for-bit" true
    (bits sc.Mae.Estimate.area = bits direct_sc.Mae.Estimate.area
    && bits sc.width = bits direct_sc.width
    && bits sc.height = bits direct_sc.height
    && sc.rows = direct_sc.rows);
  Alcotest.(check bool) "fullcustom exact bit-for-bit" true
    (bits fce.Mae.Estimate.area = bits direct_exact.Mae.Estimate.area);
  Alcotest.(check bool) "fullcustom average bit-for-bit" true
    (bits fca.Mae.Estimate.area = bits direct_avg.Mae.Estimate.area)

(* gatearray + every baseline end-to-end through the driver *)
let test_all_methods_through_driver () =
  let r = report_of ~methods:[ "all" ] S.full_adder_tx in
  Alcotest.(check int) "eight results" 8 (List.length r.results);
  Alcotest.(check (list string)) "no method failed" []
    (List.map fst (Mae.Driver.method_failures r));
  let area_of name =
    match Mae.Driver.find_result r name with
    | Some (Ok outcome) -> (Mae.Methodology.dims outcome).Mae.Methodology.area
    | Some (Error e) ->
        Alcotest.failf "%s failed: %s" name (Mae.Methodology.error_to_string e)
    | None -> Alcotest.failf "%s missing" name
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " positive area") true (area_of name > 0.))
    all_names;
  (* the gate-array outcome carries its payload *)
  match Mae.Driver.gatearray r with
  | Some ga ->
      Alcotest.(check bool) "gatearray routable" true
        ga.Mae.Gatearray.routable
  | None -> Alcotest.fail "gatearray outcome missing"

(* the same method set is deterministic across engine domain counts *)
let test_engine_determinism_all_methods () =
  let batch =
    [
      S.full_adder_tx; S.counter8;
      Mae_workload.Bench_circuits.flatten (Mae_workload.Generators.decoder 3);
    ]
  in
  let digest results =
    List.map
      (function
        | Error e -> [ Int64.of_int (Hashtbl.hash (Format.asprintf "%a" Mae_engine.pp_error e)) ]
        | Ok (r : Mae.Driver.module_report) ->
            List.concat_map
              (fun (mr : Mae.Driver.method_result) ->
                match mr.outcome with
                | Ok o ->
                    let d = Mae.Methodology.dims o in
                    List.map Int64.bits_of_float
                      [ d.Mae.Methodology.area; d.width; d.height ]
                | Error e ->
                    [
                      Int64.of_int
                        (Hashtbl.hash (Mae.Methodology.error_to_string e));
                    ])
              r.results)
      results
  in
  let seq =
    Mae_engine.run_circuits ~jobs:1 ~methods:[ "all" ] ~registry batch
  in
  (* which worker claims which chunk differs run to run; the bits
     must not *)
  for run = 1 to 3 do
    let par =
      Mae_engine.run_circuits ~jobs:4 ~methods:[ "all" ] ~registry batch
    in
    Alcotest.(check (list (list int64)))
      (Printf.sprintf "jobs:1 = jobs:4 over all methods (run %d)" run)
      (digest seq) (digest par)
  done

(* one failing methodology must not poison the others *)
let test_method_failure_isolation () =
  (* the paper's nmos25 process has no gate-array site cell geometry
     analogue for an empty circuit: estimate over a portless, deviceless
     module makes champ/plest report typed errors while naive succeeds *)
  let empty =
    Mae_netlist.Circuit.make ~name:"empty" ~technology:"nmos25" ~devices:[]
      ~nets:[] ~ports:[]
  in
  match Mae.Driver.run_circuit ~registry ~methods:[ "all" ] empty with
  | Error _ -> () (* validation may refuse outright: also fine, typed *)
  | Ok r ->
      List.iter
        (fun (mr : Mae.Driver.method_result) ->
          match mr.outcome with
          | Ok _ | Error _ -> () (* every slot present, nothing raised *))
        r.results;
      Alcotest.(check int) "all eight slots present" 8 (List.length r.results)

let test_unknown_method_typed_error () =
  match Mae.Driver.run_circuit ~registry ~methods:[ "no-such" ] S.full_adder with
  | Error (Mae.Driver.Unknown_method { methodology = "no-such"; _ }) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s"
        (Format.asprintf "%a" Mae.Driver.pp_error e)
  | Ok _ -> Alcotest.fail "expected Unknown_method"

(* make_ctx + run: the standalone entry the check harness uses *)
let test_standalone_run () =
  let process = Mae_tech.Builtin.nmos25 in
  let circuit = S.full_adder_tx in
  let ctx =
    match Mae.Methodology.make_ctx ~process circuit with
    | Ok ctx -> ctx
    | Error e -> Alcotest.failf "make_ctx: %s" (Mae.Methodology.error_to_string e)
  in
  let t = Option.get (Mae.Methodology.find "stdcell") in
  match Mae.Methodology.run ctx t circuit with
  | Ok (Mae.Methodology.Stdcell { auto; sweep }) ->
      Alcotest.(check bool) "positive area" true (auto.Mae.Estimate.area > 0.);
      Alcotest.(check bool) "sweep non-empty" true (sweep <> [])
  | Ok _ -> Alcotest.fail "wrong outcome variant"
  | Error e -> Alcotest.failf "run: %s" (Mae.Methodology.error_to_string e)

(* make_ctx is the one place a ctx is built: make_ctx + run over every
   methodology must be the driver's report, compared as IEEE-754 bits,
   for a gate-level circuit that expands and a transistor-level one *)
let outcome_bits = function
  | Error e -> [ Int64.of_int (Hashtbl.hash (Mae.Methodology.error_to_string e)) ]
  | Ok o ->
      let d = Mae.Methodology.dims o in
      let dims_bits =
        List.map Int64.bits_of_float [ d.Mae.Methodology.area; d.width; d.height ]
      in
      let sweep_bits =
        match o with
        | Mae.Methodology.Stdcell { sweep; _ } ->
            List.concat_map
              (fun (e : Mae.Estimate.stdcell) ->
                Int64.of_int e.rows
                :: List.map Int64.bits_of_float [ e.area; e.width; e.height ])
              sweep
        | Fullcustom _ | Gatearray _ | Scalar _ -> []
      in
      dims_bits @ sweep_bits

let test_make_ctx_matches_driver () =
  let process = Mae_tech.Builtin.nmos25 in
  List.iter
    (fun ((circuit : Mae_netlist.Circuit.t), expands) ->
      let report = report_of ~methods:[ "all" ] circuit in
      Alcotest.(check bool)
        (circuit.name ^ ": the driver keeps no expansion")
        true (report.expanded = None);
      let ctx =
        match Mae.Methodology.make_ctx ~process circuit with
        | Ok ctx -> ctx
        | Error e ->
            Alcotest.failf "make_ctx: %s" (Mae.Methodology.error_to_string e)
      in
      Alcotest.(check bool)
        (circuit.name ^ ": fc_circuit is the circuit itself")
        true (ctx.fc_circuit == circuit);
      (* the expansion's statistics, read from the templates, are those
         of the expansion built explicitly *)
      let fc_expected =
        match Mae.Methodology.expand_for_fullcustom circuit process with
        | Some e -> Mae_netlist.Stats.compute e process
        | None -> ctx.stats
      in
      Alcotest.(check bool)
        (circuit.name ^ ": expansion as expected")
        expands (ctx.fc_stats != ctx.stats);
      Alcotest.(check (list (pair string string)))
        (circuit.name ^ ": fc_stats = Stats.compute of the expansion")
        (S.stats_fields fc_expected) (S.stats_fields ctx.fc_stats);
      let standalone =
        List.map
          (fun t ->
            ( Mae.Methodology.name t,
              outcome_bits (Mae.Methodology.run ctx t circuit) ))
          (Mae.Methodology.all ())
      in
      let driven =
        List.map
          (fun (mr : Mae.Driver.method_result) ->
            (Mae.Methodology.name mr.methodology, outcome_bits mr.outcome))
          report.results
      in
      Alcotest.(check int) (circuit.name ^ ": eight methodologies") 8
        (List.length standalone);
      Alcotest.(check (list (pair string (list int64))))
        (circuit.name ^ ": make_ctx + run = driver, bit for bit")
        driven standalone)
    [ (S.counter8, true); (S.full_adder_tx, false) ]

(* The fallbacks: a circuit no library flattens (a kind with no
   template, or already transistors) is estimated as it is, so its
   full-custom statistics are its own, physically; a template
   transistor the process lacks is the typed unknown-kind error, as
   when the expansion was built. *)
let test_make_ctx_fallbacks () =
  let process = Mae_tech.Builtin.nmos25 in
  let own what (circuit : Mae_netlist.Circuit.t) =
    match Mae.Methodology.make_ctx ~process circuit with
    | Ok ctx ->
        Alcotest.(check bool) (what ^ ": fc_stats is stats") true
          (ctx.fc_stats == ctx.stats);
        Alcotest.(check bool) (what ^ ": no expansion to build") true
          (Mae.Methodology.expand_for_fullcustom circuit process = None)
    | Error e -> Alcotest.failf "%s: %s" what (Mae.Methodology.error_to_string e)
  in
  let b = Mae_netlist.Builder.create ~name:"padded" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"p1" ~kind:"iopad" ~nets:[ "m"; "y" ]);
  own "no template for iopad (Unknown_cell)" (Mae_netlist.Builder.build b);
  own "all transistors" S.full_adder_tx;
  match Mae.Methodology.make_ctx ~process:Mae_tech.Builtin.cmos20 S.counter8 with
  | Error (Mae.Methodology.Invalid_input { reason; _ }) ->
      Alcotest.(check string) "names the transistor kind"
        "unknown device kind ndep" reason
  | Error e -> Alcotest.failf "unexpected error %s" (Mae.Methodology.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_input"

let test_make_ctx_unknown_kind () =
  let b = Mae_netlist.Builder.create ~name:"odd" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  ignore
    (Mae_netlist.Builder.add_device b ~name:"z1" ~kind:"no-such-kind"
       ~nets:[ "m"; "y" ]);
  let circuit = Mae_netlist.Builder.build b in
  match Mae.Methodology.make_ctx ~process:Mae_tech.Builtin.nmos25 circuit with
  | Error (Mae.Methodology.Invalid_input { reason; _ }) ->
      Alcotest.(check string) "names the kind" "unknown device kind no-such-kind"
        reason
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mae.Methodology.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_input"

let () =
  Alcotest.run "methodology"
    [
      ( "registry",
        [
          Alcotest.test_case "all eight registered" `Quick test_all_registered;
          Alcotest.test_case "selection parsing" `Quick test_selection_parsing;
        ] );
      ( "driver",
        [
          Alcotest.test_case "default set bit-for-bit" `Quick
            test_default_bit_for_bit;
          Alcotest.test_case "all methods end-to-end" `Quick
            test_all_methods_through_driver;
          Alcotest.test_case "failure isolation" `Quick
            test_method_failure_isolation;
          Alcotest.test_case "unknown method typed error" `Quick
            test_unknown_method_typed_error;
          Alcotest.test_case "standalone make_ctx + run" `Quick
            test_standalone_run;
          Alcotest.test_case "make_ctx + run = driver, all methods" `Quick
            test_make_ctx_matches_driver;
          Alcotest.test_case "make_ctx unknown kind is typed" `Quick
            test_make_ctx_unknown_kind;
          Alcotest.test_case "make_ctx fallbacks" `Quick test_make_ctx_fallbacks;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism across jobs" `Quick
            test_engine_determinism_all_methods;
        ] );
    ]

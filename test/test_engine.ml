(* The batch engine: input-order results, bit-for-bit determinism across
   domain counts, and per-module error isolation. *)

module S = Mae_test_support.Support

let registry = Mae_tech.Registry.create ()

(* 50 random gate-level circuits, fixed seeds: the determinism workload. *)
let random_batch ?(first_seed = 1000) n =
  List.init n (fun i ->
      Mae_workload.Random_circuit.generate
        ~name:(Printf.sprintf "rnd%02d" i)
        ~rng:(Mae_prob.Rng.create ~seed:(first_seed + i))
        {
          Mae_workload.Random_circuit.default_params with
          devices = 20 + (i mod 7) * 10;
        })

(* Every float of a report, as raw IEEE-754 bits: "equal digests" means
   bit-for-bit identical estimates, not merely close ones. *)
let bits = Int64.bits_of_float
let aspect_bits a = bits (Mae_geom.Aspect.ratio a)

let stdcell_digest (e : Mae.Estimate.stdcell) =
  [
    Int64.of_int e.rows;
    Int64.of_int e.tracks;
    Int64.of_int e.feed_throughs;
    bits e.height;
    bits e.width;
    bits e.area;
    aspect_bits e.aspect;
    aspect_bits e.aspect_raw;
  ]

let fullcustom_digest (e : Mae.Estimate.fullcustom) =
  [
    bits e.device_area;
    bits e.wire_area;
    bits e.area;
    bits e.width;
    bits e.height;
    aspect_bits e.aspect;
    aspect_bits e.aspect_raw;
  ]

(* every selected method contributes: its full payload digest for the
   structured outcomes, the shared dims for the scalar baselines *)
let outcome_digest (mr : Mae.Driver.method_result) =
  let name = Mae.Methodology.name mr.methodology in
  match mr.outcome with
  | Ok (Mae.Methodology.Stdcell { auto; sweep }) ->
      stdcell_digest auto @ List.concat_map stdcell_digest sweep
  | Ok (Mae.Methodology.Fullcustom fc) -> fullcustom_digest fc
  | Ok outcome ->
      let d = Mae.Methodology.dims outcome in
      [ bits d.area; bits d.width; bits d.height ]
  | Error e ->
      [ Int64.of_int (Hashtbl.hash (name, Mae.Methodology.error_to_string e)) ]

let result_digest = function
  | Ok (r : Mae.Driver.module_report) ->
      ( "ok:" ^ r.circuit.Mae_netlist.Circuit.name,
        List.concat_map outcome_digest r.results )
  | Error e -> (Format.asprintf "error: %a" Mae_engine.pp_error e, [])

let digests = Alcotest.(list (pair string (list int64)))

let test_determinism () =
  let batch = random_batch 50 in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry batch in
  let par = Mae_engine.run_circuits ~jobs:8 ~registry batch in
  Alcotest.check digests "jobs:1 = jobs:8, bit for bit"
    (List.map result_digest seq)
    (List.map result_digest par)

let test_order_preserved () =
  let batch = random_batch 12 in
  let results = Mae_engine.run_circuits ~jobs:4 ~registry batch in
  let names =
    List.map
      (function
        | Ok (r : Mae.Driver.module_report) ->
            r.circuit.Mae_netlist.Circuit.name
        | Error _ -> "<error>")
      results
  in
  Alcotest.(check (list string))
    "slot i holds module i"
    (List.map (fun (c : Mae_netlist.Circuit.t) -> c.name) batch)
    names

let test_error_isolation () =
  let bad =
    Mae_workload.Random_circuit.generate ~name:"bad"
      ~rng:(Mae_prob.Rng.create ~seed:7)
      {
        Mae_workload.Random_circuit.default_params with
        devices = 20;
        technology = "unobtanium";
      }
  in
  let good = random_batch 5 in
  let batch =
    match good with
    | g0 :: g1 :: rest -> g0 :: g1 :: bad :: rest
    | _ -> assert false
  in
  let results = Mae_engine.run_circuits ~jobs:4 ~registry batch in
  Alcotest.(check int) "one slot per module" 6 (List.length results);
  List.iteri
    (fun i result ->
      match (i, result) with
      | 2, Error (Mae_engine.Driver_error (Mae.Driver.Unknown_process p)) ->
          Alcotest.(check string) "failing module named" "bad" p.module_name
      | 2, _ -> Alcotest.fail "slot 2 should be Unknown_process"
      | _, Ok _ -> ()
      | i, Error e ->
          Alcotest.failf "slot %d unexpectedly failed: %a" i
            Mae_engine.pp_error e)
    results

let test_jobs_validation () =
  S.raises_invalid (fun () ->
      Mae_engine.run_circuits ~jobs:(-1) ~registry (random_batch 1));
  (* jobs:0 = one domain per core; must work on any host *)
  let auto = Mae_engine.run_circuits ~jobs:0 ~registry (random_batch 3) in
  Alcotest.(check int) "jobs:0 runs the batch" 3 (List.length auto);
  Alcotest.(check int)
    "empty batch" 0
    (List.length (Mae_engine.run_circuits ~jobs:4 ~registry []))

(* The persistent pool must be invisible in results: same bits as
   spawning fresh domains, across reuse, changing jobs counts (capped at
   the pool's width rather than erroring) and changing batch sizes. *)
let test_pool_reuse_deterministic () =
  let pool = Mae_engine.Pool.create ~domains:3 in
  Alcotest.(check int)
    "concurrency = domains + caller" 4
    (Mae_engine.Pool.concurrency pool);
  let batch = random_batch 17 in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry batch in
  List.iter
    (fun jobs ->
      let pooled = Mae_engine.run_circuits ~jobs ~pool ~registry batch in
      Alcotest.check digests
        (Printf.sprintf "pooled jobs:%d = jobs:1" jobs)
        (List.map result_digest seq)
        (List.map result_digest pooled))
    [ 2; 4; 8; 3; 4 ];
  let small = random_batch ~first_seed:2000 3 in
  let small_seq = Mae_engine.run_circuits ~jobs:1 ~registry small in
  let small_pooled = Mae_engine.run_circuits ~jobs:4 ~pool ~registry small in
  Alcotest.check digests "pool survives batch-size changes"
    (List.map result_digest small_seq)
    (List.map result_digest small_pooled);
  Mae_engine.Pool.shutdown pool;
  Mae_engine.Pool.shutdown pool (* idempotent *);
  (* a shut-down pool contributes no workers: the batch degrades to the
     calling domain, with identical bits *)
  let after = Mae_engine.run_circuits ~jobs:4 ~pool ~registry small in
  Alcotest.check digests "shut-down pool degrades to sequential"
    (List.map result_digest small_seq)
    (List.map result_digest after)

let test_stats () =
  let batch = random_batch 8 in
  Mae_prob.Kernel_cache.clear ();
  let results, stats =
    Mae_engine.run_circuits_with_stats ~jobs:2 ~registry batch
  in
  Alcotest.(check int) "modules" 8 stats.Mae_engine.modules;
  Alcotest.(check int)
    "ok + failed = modules" stats.Mae_engine.modules
    (stats.Mae_engine.ok + stats.Mae_engine.failed);
  Alcotest.(check int)
    "ok counts the Ok slots" stats.Mae_engine.ok
    (List.length (List.filter Result.is_ok results));
  Alcotest.(check int) "jobs as requested" 2 stats.Mae_engine.jobs;
  Alcotest.(check bool) "elapsed >= 0" true (stats.Mae_engine.elapsed_s >= 0.);
  Alcotest.(check bool)
    "repeated kernels hit the cache" true
    (stats.Mae_engine.cache_hits > 0)

(* --- the content-addressed estimate store through the engine --- *)

let test_estimate_store_hits () =
  (* both technologies, gate- and transistor-level circuits; the warm
     pass asks for shuffled rebuilds (same key, different build order) *)
  let gen = Mae_workload.Generators.full_adder in
  let batch =
    random_batch ~first_seed:3000 6
    @ [
        gen ~name:"fa_cmos" ~technology:"cmos20" ();
        Mae_workload.Bench_circuits.flatten (gen ~name:"fa_tx" ());
        Mae_workload.Generators.pass_chain ~technology:"cmos20" 6;
      ]
  in
  let n = List.length batch in
  let shuffled = List.mapi (fun i c -> S.rebuild_permuted ~rng:(S.rng i) c) batch in
  let record = Alcotest.testable Mae_db.Record.pp Mae_db.Record.equal in
  let check_methods methods =
    let label = String.concat "," methods in
    let reference =
      List.map
        (function
          | Ok r -> r
          | Error _ -> Alcotest.failf "%s: reference driver failed" label)
        (Mae.Driver.run_circuits ~methods ~registry batch)
    in
    let cache = Mae_db.Cas.create () in
    let cold, cold_stats =
      Mae_engine.run_circuits_with_stats ~methods ~jobs:1 ~cache ~registry batch
    in
    Alcotest.(check int) (label ^ ": cold run misses every module") n
      cold_stats.Mae_engine.store_misses;
    Alcotest.(check int) (label ^ ": cold run has no hits") 0
      cold_stats.Mae_engine.store_hits;
    let warm, warm_stats =
      Mae_engine.run_circuits_with_stats ~methods ~jobs:1 ~cache ~registry
        shuffled
    in
    Alcotest.(check int) (label ^ ": warm run hits every module") n
      warm_stats.Mae_engine.store_hits;
    Alcotest.(check int) (label ^ ": warm run misses nothing") 0
      warm_stats.Mae_engine.store_misses;
    let expected = List.map (fun r -> result_digest (Ok r)) reference in
    Alcotest.check digests (label ^ ": cold answers are the driver's, bit for bit")
      expected (List.map result_digest cold);
    Alcotest.check digests (label ^ ": warm answers are the driver's, bit for bit")
      expected (List.map result_digest warm);
    let rows = Mae_db.Store.create () in
    List.iter
      (fun r -> Result.iter (Mae_db.Store.add rows) (Mae_db.Record.of_report r))
      reference;
    Alcotest.(check (list record))
      (label ^ ": to_store rows equal the driver's")
      (Mae_db.Store.records rows)
      (Mae_db.Store.records (Mae_db.Cas.to_store cache));
    cache
  in
  ignore (check_methods [ "stdcell" ]);
  let cache = check_methods [ "default" ] in
  (* an explicit config changes results, so it must bypass the store *)
  let config = { Mae.Config.default with two_component_free = false } in
  let _, bypass =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~config ~registry batch
  in
  Alcotest.(check int) "config bypasses the store" 0
    (bypass.Mae_engine.store_hits + bypass.Mae_engine.store_misses)

(* --- incremental re-estimation: the delta path must be bit-for-bit the
   full recomputation --- *)

let previous_of circuit =
  match Mae.Driver.run_circuit ~registry circuit with
  | Ok r -> r
  | Error e -> Alcotest.failf "driver: %a" (fun ppf -> Mae.Driver.pp_error ppf) e

let check_reestimate ?(expect_incremental = true) name circuit edit =
  let previous = previous_of circuit in
  match Mae_engine.reestimate ~registry ~previous edit with
  | Error e -> Alcotest.failf "%s: reestimate: %a" name Mae_engine.pp_error e
  | Ok rr ->
      let edited =
        match Mae_engine.apply_edit circuit edit with
        | Ok c -> c
        | Error msg -> Alcotest.failf "%s: apply_edit: %s" name msg
      in
      let full = previous_of edited in
      Alcotest.check digests
        (name ^ ": delta = full recomputation, bit for bit")
        [ result_digest (Ok full) ]
        [ result_digest (Ok rr.Mae_engine.report) ];
      Alcotest.(check bool)
        (name ^ ": stats updated incrementally")
        expect_incremental rr.Mae_engine.stats_incremental;
      Alcotest.(check bool)
        (name ^ ": incremental stats match a fresh compute")
        true
        (Mae_netlist.Stats.equal rr.Mae_engine.stats
           (Mae_netlist.Stats.compute edited full.Mae.Driver.process));
      rr

let test_reestimate_add_device () =
  List.iter
    (fun circuit ->
      List.iter
        (fun (name, edit) -> ignore (check_reestimate name circuit edit))
        [
          ( "add_device new net",
            Mae_engine.Add_device
              { name = "zz_new"; kind = "inv"; nets = [ "zz_net" ] } );
          ( "add_device existing nets",
            Mae_engine.Add_device
              {
                name = "zz_tap";
                kind = "nand2";
                nets =
                  [
                    circuit.Mae_netlist.Circuit.nets.(0).Mae_netlist.Net.name;
                    circuit.Mae_netlist.Circuit.nets.(1).Mae_netlist.Net.name;
                    circuit.Mae_netlist.Circuit.nets.(0).Mae_netlist.Net.name;
                  ];
              } );
        ])
    (random_batch ~first_seed:4000 3)

let test_reestimate_nets_and_removal () =
  let circuit = List.hd (random_batch ~first_seed:4100 1) in
  let rr =
    check_reestimate "add floating net" circuit
      (Mae_engine.Add_net { name = "zz_float" })
  in
  (* adding a floating net changes no estimator input except the net
     count: the structured methodologies are all reused *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "add_net reuses %s" m)
        true
        (List.mem m rr.Mae_engine.reused))
    [ "stdcell"; "fullcustom-exact"; "fullcustom-average" ];
  (* removing it again: first apply the add, then re-estimate the remove *)
  let grown =
    match
      Mae_engine.apply_edit circuit (Mae_engine.Add_net { name = "zz_float" })
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "grow: %s" msg
  in
  ignore
    (check_reestimate "remove floating net" grown
       (Mae_engine.Remove_net { name = "zz_float" }));
  (* device removal breaks fold associativity: full stats recompute,
     same bit-for-bit contract *)
  let victim = circuit.Mae_netlist.Circuit.devices.(2).Mae_netlist.Device.name in
  ignore
    (check_reestimate ~expect_incremental:false "remove device" circuit
       (Mae_engine.Remove_device { name = victim }))

let test_reestimate_chained_stats () =
  (* ?previous_stats makes chaining O(edit): feed each report's stats
     into the next call and stay bit-for-bit *)
  let circuit = List.hd (random_batch ~first_seed:4200 1) in
  let previous = previous_of circuit in
  let e1 = Mae_engine.Add_net { name = "chain_a" } in
  let rr1 =
    match Mae_engine.reestimate ~registry ~previous e1 with
    | Ok rr -> rr
    | Error e -> Alcotest.failf "chain 1: %a" Mae_engine.pp_error e
  in
  let e2 =
    Mae_engine.Add_device
      { name = "chain_dev"; kind = "inv"; nets = [ "chain_a" ] }
  in
  let rr2 =
    match
      Mae_engine.reestimate ~registry ~previous:rr1.Mae_engine.report
        ~previous_stats:rr1.Mae_engine.stats e2
    with
    | Ok rr -> rr
    | Error e -> Alcotest.failf "chain 2: %a" Mae_engine.pp_error e
  in
  let full =
    let c1 = Result.get_ok (Mae_engine.apply_edit circuit e1) in
    previous_of (Result.get_ok (Mae_engine.apply_edit c1 e2))
  in
  Alcotest.check digests "chained deltas = full, bit for bit"
    [ result_digest (Ok full) ]
    [ result_digest (Ok rr2.Mae_engine.report) ]

let test_apply_edit_errors () =
  let circuit = S.tiny () in
  let expect_err name edit =
    match Mae_engine.apply_edit circuit edit with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected apply_edit to refuse" name
  in
  expect_err "duplicate device"
    (Mae_engine.Add_device { name = "i1"; kind = "inv"; nets = [ "a" ] });
  expect_err "no pins" (Mae_engine.Add_device { name = "x"; kind = "inv"; nets = [] });
  expect_err "missing device" (Mae_engine.Remove_device { name = "ghost" });
  expect_err "existing net" (Mae_engine.Add_net { name = "m" });
  expect_err "missing net" (Mae_engine.Remove_net { name = "ghost" });
  expect_err "connected net" (Mae_engine.Remove_net { name = "m" });
  (* net "a" has degree 1 via i1 and is port-bound: both refusals *)
  expect_err "port-bound net" (Mae_engine.Remove_net { name = "a" });
  (* and reestimate surfaces the refusal as a typed error *)
  let previous = previous_of circuit in
  match
    Mae_engine.reestimate ~registry ~previous
      (Mae_engine.Remove_device { name = "ghost" })
  with
  | Error (Mae_engine.Invalid_edit { module_name; _ }) ->
      Alcotest.(check string) "typed error names the module" "tiny" module_name
  | Error e -> Alcotest.failf "wrong error: %a" Mae_engine.pp_error e
  | Ok _ -> Alcotest.fail "expected Invalid_edit"

let test_stats_delta_equals_compute () =
  let process = Mae_tech.Registry.find_exn registry "nmos25" in
  List.iter
    (fun circuit ->
      let stats = Mae_netlist.Stats.compute circuit process in
      let edit =
        Mae_engine.Add_device { name = "zz"; kind = "inv"; nets = [ "zz_n" ] }
      in
      let grown = Result.get_ok (Mae_engine.apply_edit circuit edit) in
      let kind = Option.get (Mae_tech.Process.find_device process "inv") in
      let delta =
        Mae_netlist.Stats.add_device_delta stats ~kind
          ~net_count:(Mae_netlist.Circuit.net_count grown)
          ~net_transitions:[ (0, 1) ]
      in
      Alcotest.(check bool) "delta = compute, bitwise" true
        (Mae_netlist.Stats.equal delta
           (Mae_netlist.Stats.compute grown process)))
    (random_batch ~first_seed:4300 4)

let () =
  Alcotest.run "engine"
    [
      ( "batch",
        [
          Alcotest.test_case "determinism jobs:1 = jobs:8" `Slow
            test_determinism;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "error isolation" `Quick test_error_isolation;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "pool reuse is deterministic" `Slow
            test_pool_reuse_deterministic;
          Alcotest.test_case "batch stats" `Quick test_stats;
        ] );
      ( "store",
        [
          Alcotest.test_case "repeat batch answers from the store" `Quick
            test_estimate_store_hits;
        ] );
      ( "reestimate",
        [
          Alcotest.test_case "add_device delta = full" `Quick
            test_reestimate_add_device;
          Alcotest.test_case "net edits and removal delta = full" `Quick
            test_reestimate_nets_and_removal;
          Alcotest.test_case "chained previous_stats stays exact" `Quick
            test_reestimate_chained_stats;
          Alcotest.test_case "edit validation" `Quick test_apply_edit_errors;
          Alcotest.test_case "stats delta = compute" `Quick
            test_stats_delta_equals_compute;
        ] );
    ]

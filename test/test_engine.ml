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

(* [jobs] is the request; [per_domain] and the printed line are what
   ran.  Two circuits cannot keep four domains busy. *)
let test_stats_domains_used () =
  let _, stats =
    Mae_engine.run_circuits_with_stats ~jobs:4 ~registry (random_batch 2)
  in
  Alcotest.(check int) "jobs as requested" 4 stats.Mae_engine.jobs;
  Alcotest.(check int) "two circuits use two domains" 2
    (Array.length stats.Mae_engine.per_domain);
  let line = Format.asprintf "%a" Mae_engine.pp_stats stats in
  let needle = "on 2 domain(s)" in
  let found =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length line
      && (String.equal (String.sub line i n) needle || at (i + 1))
    in
    at 0
  in
  if not found then Alcotest.failf "pp_stats: want %S in %S" needle line

(* Every worker claims chunks from one shared counter.  Whatever the
   batch size, chunk size (one module, or several with a short last
   chunk) and worker count, each module is estimated exactly once, into
   its own slot, with the sequential bits. *)
let test_shared_counter_claims_once () =
  let pool = Mae_engine.Pool.create ~domains:3 in
  let batch = Array.of_list (random_batch ~first_seed:5000 70) in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry (Array.to_list batch) in
  let seq = Array.of_list (List.map result_digest seq) in
  List.iter
    (fun (n, jobs) ->
      let label = Printf.sprintf "n:%d jobs:%d" n jobs in
      let results, stats =
        Mae_engine.run_circuits_with_stats ~jobs ~pool ~registry
          (Array.to_list (Array.sub batch 0 n))
      in
      Alcotest.check digests
        (label ^ ": = jobs:1, bit for bit")
        (Array.to_list (Array.sub seq 0 n))
        (List.map result_digest results);
      Alcotest.(check int)
        (label ^ ": workers used")
        (min (min jobs n) (Mae_engine.Pool.concurrency pool))
        (Array.length stats.Mae_engine.per_domain);
      Alcotest.(check int)
        (label ^ ": per_domain sums to the batch")
        n
        (Array.fold_left ( + ) 0 stats.Mae_engine.per_domain))
    [ (1, 4); (2, 3); (9, 3); (33, 4); (70, 2); (70, 8) ];
  Mae_engine.Pool.shutdown pool

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

(* --- per-run store accounting --- *)

let unknown_process_circuit name =
  Mae_workload.Random_circuit.generate ~name ~rng:(Mae_prob.Rng.create ~seed:7)
    {
      Mae_workload.Random_circuit.default_params with
      devices = 20;
      technology = "unobtanium";
    }

(* Runs against one store -- an empty request, an unknown-process
   module (an [Error] slot, no store lookup) and a mix of stored and new
   modules among them: every run must answer bit-for-bit as a plain
   uncached run, with exact store counts from its own lookups; a
   [config] run must bypass the store and store nothing.  Both
   sequentially and fanned out over a pool. *)
let test_runs_count_own_store_lookups () =
  let stored = random_batch ~first_seed:5000 3 in
  let requests =
    [
      random_batch ~first_seed:5100 5;
      [];
      [ unknown_process_circuit "lost" ];
      stored @ random_batch ~first_seed:5200 4;
      [
        Mae_workload.Bench_circuits.flatten
          (Mae_workload.Generators.full_adder ~name:"fa_tx" ());
      ];
    ]
  in
  let reference ?config () =
    List.map
      (fun circuits ->
        List.map result_digest
          (Mae_engine.run_circuits ?config ~jobs:1 ~registry circuits))
      requests
  in
  let config = { Mae.Config.default with two_component_free = false } in
  let plain = reference () and configured = reference ~config () in
  let store_counts = Alcotest.(list (pair int int)) in
  let check_runs label ?pool ~jobs () =
    let cache = Mae_db.Cas.create () in
    ignore (Mae_engine.run_circuits ~jobs:1 ~cache ~registry stored);
    let runs ?config () =
      List.map
        (fun circuits ->
          let results, stats =
            Mae_engine.run_circuits_with_stats ?config ~jobs ?pool ~cache
              ~registry circuits
          in
          ( List.map result_digest results,
            (stats.Mae_engine.store_hits, stats.Mae_engine.store_misses) ))
        requests
    in
    let cached = runs () in
    Alcotest.check (Alcotest.list digests)
      (label ^ ": each cached run = its plain run, bit for bit")
      plain (List.map fst cached);
    Alcotest.check store_counts (label ^ ": per-run store hits/misses")
      [ (0, 5); (0, 0); (0, 0); (3, 4); (0, 1) ]
      (List.map snd cached);
    let stored_before = Mae_db.Cas.length cache in
    let with_config = runs ~config () in
    Alcotest.check (Alcotest.list digests)
      (label ^ ": configured runs = their plain configured runs")
      configured (List.map fst with_config);
    Alcotest.check store_counts (label ^ ": config bypasses the store per run")
      (List.map (fun _ -> (0, 0)) requests)
      (List.map snd with_config);
    Alcotest.(check int)
      (label ^ ": config stores nothing")
      stored_before (Mae_db.Cas.length cache)
  in
  check_runs "jobs:1" ~jobs:1 ();
  let pool = Mae_engine.Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Mae_engine.Pool.shutdown pool)
    (check_runs "jobs:4 pooled" ~pool ~jobs:4)

(* Two batches on two domains at once against one store: each batch's
   store counts are its own lookups, not the other batch's too. *)
let test_concurrent_store_counts () =
  let cache = Mae_db.Cas.create () in
  let a = random_batch ~first_seed:6000 24 in
  let b = random_batch ~first_seed:6100 17 in
  (* half of [a] is already stored, so both hits and misses are in play *)
  ignore
    (Mae_engine.run_circuits ~jobs:1 ~cache ~registry
       (List.filteri (fun i _ -> i mod 2 = 0) a));
  let start = Atomic.make 0 in
  let run batch () =
    Atomic.incr start;
    while Atomic.get start < 2 do
      Domain.cpu_relax ()
    done;
    snd (Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~registry batch)
  in
  let other = Domain.spawn (run b) in
  let stats_a = run a () in
  let stats_b = Domain.join other in
  List.iter
    (fun (label, batch, (stats : Mae_engine.stats)) ->
      Alcotest.(check int)
        (label ^ ": store hits + misses = its own modules")
        (List.length batch)
        (stats.store_hits + stats.store_misses))
    [ ("a", a, stats_a); ("b", b, stats_b) ];
  Alcotest.(check int) "a: the stored half hits" 12 stats_a.Mae_engine.store_hits

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
          Alcotest.test_case "stats report the domains used" `Quick
            test_stats_domains_used;
          Alcotest.test_case "runs count their own store lookups" `Slow
            test_runs_count_own_store_lookups;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "shared counter claims every module once" `Slow
            test_shared_counter_claims_once;
        ] );
      ( "store",
        [
          Alcotest.test_case "repeat batch answers from the store" `Quick
            test_estimate_store_hits;
          Alcotest.test_case "concurrent batches count their own lookups"
            `Quick test_concurrent_store_counts;
        ] );
    ]

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

let test_stats () =
  let batch = random_batch 8 in
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
  Alcotest.(check bool) "elapsed >= 0" true (stats.Mae_engine.elapsed_s >= 0.)

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
   its own slot, with the sequential bits, on [min jobs n] workers. *)
let test_shared_counter_claims_once () =
  let batch = Array.of_list (random_batch ~first_seed:5000 70) in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry (Array.to_list batch) in
  let seq = Array.of_list (List.map result_digest seq) in
  List.iter
    (fun (n, jobs) ->
      let label = Printf.sprintf "n:%d jobs:%d" n jobs in
      let results, stats =
        Mae_engine.run_circuits_with_stats ~jobs ~registry
          (Array.to_list (Array.sub batch 0 n))
      in
      Alcotest.check digests
        (label ^ ": = jobs:1, bit for bit")
        (Array.to_list (Array.sub seq 0 n))
        (List.map result_digest results);
      Alcotest.(check int)
        (label ^ ": workers used")
        (min jobs n)
        (Array.length stats.Mae_engine.per_domain);
      Alcotest.(check int)
        (label ^ ": per_domain sums to the batch")
        n
        (Array.fold_left ( + ) 0 stats.Mae_engine.per_domain))
    [ (1, 4); (2, 3); (9, 3); (33, 4); (70, 2); (70, 8) ]

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
          Alcotest.test_case "batch stats" `Quick test_stats;
          Alcotest.test_case "stats report the domains used" `Quick
            test_stats_domains_used;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "shared counter claims every module once" `Slow
            test_shared_counter_claims_once;
        ] );
    ]

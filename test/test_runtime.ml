(* The runtime lens: off-is-off guarantees, per-domain pause sketches
   under a multi-domain allocation hammer, exposition labelling, and
   clean cursor teardown across start/stop cycles.

   Test order matters: the "off" group runs first, while this process
   has never started the lens, so it can assert that nothing was
   registered. *)

module Obs = Mae_obs
module Runtime = Mae_obs.Runtime
module Sketch = Mae_obs.Sketch
module Metrics = Mae_obs.Metrics
module Json = Mae_obs.Json

let registry = Mae_tech.Registry.create ()

let random_batch ?(first_seed = 7000) n =
  List.init n (fun i ->
      Mae_workload.Random_circuit.generate
        ~name:(Printf.sprintf "rt%03d" i)
        ~rng:(Mae_prob.Rng.create ~seed:(first_seed + i))
        {
          Mae_workload.Random_circuit.default_params with
          devices = 20 + (i mod 5) * 10;
        })

let digest results =
  List.map
    (function
      | Ok (r : Mae.Driver.module_report) ->
          List.concat_map
            (fun (mr : Mae.Driver.method_result) ->
              match mr.outcome with
              | Ok outcome ->
                  let d = Mae.Methodology.dims outcome in
                  List.map Int64.bits_of_float [ d.area; d.height; d.width ]
              | Error _ -> [])
            r.results
      | Error _ -> [])
    results

let run_batch modules =
  let results, _ =
    Mae_engine.run_circuits_with_stats ~jobs:2 ~registry modules
  in
  results

(* enough churn to overflow the default minor heap many times over *)
let hammer () =
  let junk = ref [] in
  for i = 1 to 300_000 do
    junk := (i, float_of_int i) :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  ignore (Sys.opaque_identity !junk);
  Gc.minor ()

let gc_sketches () =
  List.filter
    (fun s -> String.equal (Sketch.name s) "mae_gc_pause_seconds_summary")
    (Sketch.all ())

(* --- off is off --- *)

let test_off_registers_nothing () =
  Alcotest.(check bool) "not running" false (Runtime.running ());
  Alcotest.(check bool)
    "no gc counter registered" true
    (Option.is_none (Metrics.find_counter "mae_gc_minor_collections_total"));
  Alcotest.(check bool)
    "no gc gauge registered" true
    (Option.is_none (Metrics.find_gauge "mae_gc_heap_words"));
  Alcotest.(check bool)
    "no process gauge registered" true
    (Option.is_none (Metrics.find_gauge "mae_process_resident_memory_bytes"));
  Alcotest.(check int) "no pause sketches" 0 (List.length (gc_sketches ()));
  Alcotest.(check int) "poll is a no-op" 0 (Runtime.poll ());
  Alcotest.(check (float 0.)) "no pause attribution" 0.
    (Runtime.pause_seconds_since 0.);
  Alcotest.(check int) "no gc events" 0 (List.length (Runtime.gc_events ()));
  match Json.member "enabled" (Runtime.to_json ()) with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "/runtimez document should say enabled: false"

let test_bit_for_bit () =
  (* telemetry fully off, lens never started in this process yet *)
  Obs.set_enabled false;
  let modules = random_batch 200 in
  let off = digest (run_batch modules) in
  (* now the works: telemetry on, lens running, GC churning *)
  Obs.set_enabled true;
  Alcotest.(check bool) "lens starts" true (Runtime.start ());
  hammer ();
  let on = digest (run_batch modules) in
  Runtime.stop ();
  Obs.set_enabled false;
  Alcotest.(check bool)
    "200-module batch identical with lens on vs off" true (off = on)

(* --- the lens under load --- *)

let test_hammer_populates_sketches () =
  Alcotest.(check bool) "lens starts" true (Runtime.start ());
  let doms = Array.init 4 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join doms;
  ignore (Runtime.poll ());
  Alcotest.(check bool) "pauses observed" true (Runtime.pause_count () > 0);
  (match Runtime.max_pause_seconds () with
  | Some mx -> Alcotest.(check bool) "max pause positive" true (mx > 0.)
  | None -> Alcotest.fail "no max pause");
  Alcotest.(check bool)
    "pooled p50 answers" true
    (Option.is_some (Runtime.pause_quantile 0.5));
  Alcotest.(check bool)
    "gc time attributable to the whole run" true
    (Runtime.pause_seconds_since 0. > 0.);
  let sketches = gc_sketches () in
  Alcotest.(check bool)
    "several per-domain sketches" true
    (List.length sketches >= 2);
  (* labels: every sketch carries exactly one "domain" label and no
     two sketches share it *)
  let labels =
    List.map
      (fun s ->
        match Sketch.labels s with
        | [ ("domain", d) ] -> d
        | other ->
            Alcotest.failf "unexpected labels (%d pairs)" (List.length other))
      sketches
  in
  Alcotest.(check int)
    "per-domain labels disjoint"
    (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  let ds = Runtime.domains () in
  Alcotest.(check bool) "several domains reported" true (List.length ds >= 2);
  Alcotest.(check bool)
    "minor collections counted" true
    (List.exists (fun d -> d.Runtime.d_minors > 0) ds);
  Alcotest.(check bool)
    "allocation attributed" true
    (List.exists (fun d -> d.Runtime.d_allocated_words > 0) ds);
  Runtime.stop ()

let test_exposition_labels () =
  (* statistics survive stop; the families were registered by the
     earlier starts *)
  let prom = Metrics.to_prometheus () in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i =
      i + nn <= nh
      && (String.equal (String.sub haystack i nn) needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool)
    "labelled summary series exported" true
    (contains prom "mae_gc_pause_seconds_summary{domain=\"");
  Alcotest.(check bool)
    "labelled quantile series exported" true
    (contains prom ",quantile=\"");
  let count_sub sub =
    String.split_on_char '\n' prom
    |> List.filter (fun l -> contains l sub)
    |> List.length
  in
  Alcotest.(check int) "one TYPE line for the family" 1
    (count_sub "# TYPE mae_gc_pause_seconds_summary summary");
  Alcotest.(check int) "one HELP line for the family" 1
    (count_sub "# HELP mae_gc_pause_seconds_summary");
  Alcotest.(check bool)
    "per-domain _count series" true
    (count_sub "mae_gc_pause_seconds_summary_count{domain=\"" >= 2)

let test_double_start_stop () =
  Alcotest.(check bool) "first start" true (Runtime.start ());
  Alcotest.(check bool) "second start is a no-op" false (Runtime.start ());
  Runtime.stop ();
  Runtime.stop ();
  (* double stop must not raise *)
  Alcotest.(check bool) "stopped" false (Runtime.running ());
  Alcotest.(check bool) "restart after stop" true (Runtime.start ());
  hammer ();
  Alcotest.(check bool) "poll sane after restart" true (Runtime.poll () >= 0);
  Runtime.stop ();
  Alcotest.(check bool)
    "statistics readable after teardown" true
    (Runtime.pause_count () > 0)

(* --- the /runtimez document --- *)

let test_runtimez_roundtrip () =
  Alcotest.(check bool) "lens starts" true (Runtime.start ());
  hammer ();
  ignore (Runtime.poll ());
  let doc = Runtime.to_json () in
  Runtime.stop ();
  let rows =
    match Option.bind (Json.member "domains" doc) Json.to_list with
    | Some (_ :: _ as rows) -> rows
    | _ -> Alcotest.fail "domains array missing or empty"
  in
  (match Option.bind (Json.member "process" doc) (Json.member "uptime_s") with
  | Some (Json.Number up) ->
      Alcotest.(check bool) "uptime positive" true (up > 0.)
  | _ -> Alcotest.fail "process.uptime_s missing");
  Alcotest.(check int)
    "one row per domain"
    (List.length (Runtime.domains ()))
    (List.length rows);
  Alcotest.(check bool)
    "rows carry pauses" true
    (List.exists
       (fun r ->
         match Option.bind (Json.member "pauses" r) Json.to_number with
         | Some n -> n > 0.
         | None -> false)
       rows)

let () =
  Alcotest.run "runtime lens"
    [
      ( "off",
        [
          Alcotest.test_case "registers nothing, costs one atomic check"
            `Quick test_off_registers_nothing;
          Alcotest.test_case "estimates bit-for-bit identical on/off" `Quick
            test_bit_for_bit;
        ] );
      ( "on",
        [
          Alcotest.test_case "4-domain hammer populates pause sketches"
            `Quick test_hammer_populates_sketches;
          Alcotest.test_case "labelled summary exposition" `Quick
            test_exposition_labels;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "double start/stop teardown clean" `Quick
            test_double_start_stop;
        ] );
      ( "runtimez",
        [
          Alcotest.test_case "document has one GC row per domain" `Quick
            test_runtimez_roundtrip;
        ] );
    ]

(* @obs-smoke: the observability gate.

   Runs a 20-module batch with tracing + metrics on, writes both
   artifacts, and asserts (1) the Chrome trace parses and its spans
   nest per lane, (2) the metrics dumps parse and agree with the
   engine's reported totals, (3) telemetry off leaves estimates
   bit-for-bit identical to telemetry on, and (4) the disabled span
   fast path stays a no-op: a million disabled spans must cost
   microseconds-per-call at worst and record nothing.

     dune build @obs-smoke   (also pulled in by @bench-smoke) *)

open Smoke_support

let () = prefix := "obs-smoke"

let workload =
  let flat g = Mae_workload.Bench_circuits.flatten g in
  let shapes =
    [|
      flat (Mae_workload.Generators.multiplier 6);
      flat (Mae_workload.Generators.alu 8);
      flat (Mae_workload.Generators.counter 16);
      Mae_workload.Generators.inverter_chain 100;
      flat (Mae_workload.Generators.ripple_adder 16);
    |]
  in
  List.init 20 (fun i -> shapes.(i mod Array.length shapes))

(* estimate digests: raw IEEE-754 bits over every selected method's
   dimensions, so "equal" means bit-for-bit *)
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

(* --- trace well-formedness --- *)

let span_events trace =
  match Mae_obs.Json.member "traceEvents" trace with
  | None -> fail "trace JSON has no traceEvents"
  | Some events -> begin
      match Mae_obs.Json.to_list events with
      | None -> fail "traceEvents is not an array"
      | Some l ->
          List.filter
            (fun e ->
              match Mae_obs.Json.(Option.bind (member "ph" e) to_string) with
              | Some "X" -> true
              | _ -> false)
            l
    end

let field_num name e =
  match Mae_obs.Json.(Option.bind (member name e) to_number) with
  | Some f -> f
  | None -> fail "X event lacks numeric %s" name

(* stack discipline per lane: every event either nests inside the one
   below it on the stack or starts after it ended -- partial overlap is
   a malformed trace. *)
let check_lane_nesting events =
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = int_of_float (field_num "tid" e) in
      let prev = Option.value (Hashtbl.find_opt lanes tid) ~default:[] in
      Hashtbl.replace lanes tid ((field_num "ts" e, field_num "dur" e) :: prev))
    events;
  Hashtbl.iter
    (fun tid spans ->
      (* ts ascending, duration descending: an enclosing span that
         starts the same microsecond as its child must come first *)
      let spans =
        List.sort
          (fun (t1, d1) (t2, d2) ->
            match Float.compare t1 t2 with
            | 0 -> Float.compare d2 d1
            | c -> c)
          (List.rev spans)
      in
      let tolerance = 1.0 (* µs: span close order vs clock granularity *) in
      let stack = ref [] in
      List.iter
        (fun (ts, dur) ->
          let rec unwind () =
            match !stack with
            | (pts, pdur) :: rest when ts >= pts +. pdur -. tolerance ->
                stack := rest;
                ignore pdur;
                unwind ()
            | _ -> ()
          in
          unwind ();
          begin
            match !stack with
            | (pts, pdur) :: _ ->
                if ts +. dur > pts +. pdur +. tolerance then
                  fail
                    "lane %d: span at %.1fus (dur %.1fus) partially overlaps \
                     its parent (%.1fus + %.1fus)"
                    tid ts dur pts pdur
            | [] -> ()
          end;
          stack := (ts, dur) :: !stack)
        spans)
    lanes

let run_batch ~jobs =
  Mae_engine.run_circuits_with_stats ~jobs
    ~registry:(Mae_tech.Registry.create ())
    workload

let () =
  (* (4) first, before anything enables telemetry: the disabled fast
     path must not record and must stay in nanoseconds territory. *)
  Mae_obs.set_enabled false;
  let calls = 1_000_000 in
  let t0 = Mae_obs.Clock.monotonic () in
  for _ = 1 to calls do
    Mae_obs.Span.with_ ~name:"noop" (fun () -> ())
  done;
  let disabled_s = Mae_obs.Clock.monotonic () -. t0 in
  check (disabled_s < 0.25)
    "disabled span fast path: %d calls in %.1f ms (< 250 ms budget)" calls
    (disabled_s *. 1000.);
  check
    (List.length (Mae_obs.Span.events ()) = 0)
    "disabled spans record nothing";

  (* (3) bit-for-bit: telemetry must never change an estimate *)
  let off_results, _ = run_batch ~jobs:2 in
  Mae_obs.set_enabled true;
  Mae_obs.Span.reset ();
  let on_results, stats = run_batch ~jobs:2 in
  check
    (digest off_results = digest on_results)
    "telemetry on/off estimates are bit-for-bit identical (%d modules)"
    stats.Mae_engine.modules;

  (* (1) trace artifact *)
  let trace_path = "obs_smoke_trace.json" in
  (match Mae_obs.Trace.write_chrome ~path:trace_path with
  | Ok () -> ()
  | Error e -> fail "trace write failed: %s" e);
  let trace =
    match Mae_obs.Json.parse (In_channel.with_open_text trace_path In_channel.input_all) with
    | Ok t -> t
    | Error e -> fail "trace JSON unparseable: %s" e
  in
  let events = span_events trace in
  check (List.length events > 0) "trace has %d spans" (List.length events);
  let spans_with_prefix prefix =
    let np = String.length prefix in
    List.filter
      (fun e ->
        match Mae_obs.Json.(Option.bind (member "name" e) to_string) with
        | Some n -> String.length n >= np && String.equal (String.sub n 0 np) prefix
        | None -> false)
      events
  in
  let stage_spans = spans_with_prefix "driver." in
  (* 3 in-driver stages (validate/expand/stats) + the driver.module
     parent, per module; the estimators themselves trace as
     method.<name> spans, one per selected methodology (3 defaults) *)
  check
    (List.length stage_spans >= 4 * stats.Mae_engine.modules)
    "every module traced its pipeline stages (%d driver spans)"
    (List.length stage_spans);
  let method_spans = spans_with_prefix "method." in
  check
    (List.length method_spans >= 3 * stats.Mae_engine.modules)
    "every module traced its selected methodologies (%d method spans)"
    (List.length method_spans);
  check_lane_nesting events;
  check true "spans nest cleanly per domain lane";

  (* (2) metrics artifacts *)
  let prom_path = "obs_smoke_metrics.prom" in
  (match Mae_obs.Metrics.write_prometheus ~path:prom_path with
  | Ok () -> ()
  | Error e -> fail "metrics write failed: %s" e);
  let prom = In_channel.with_open_text prom_path In_channel.input_all in
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if
           String.length line > 0
           && (not (String.length line >= 1 && Char.equal line.[0] '#'))
           && not (String.contains line ' ')
         then fail "malformed metrics line %S" line);
  check
    (contains prom "mae_kernel_cache_hits_total"
    && contains prom "mae_engine_modules_total"
    && contains prom "mae_engine_queue_wait_seconds")
    "prometheus dump parses line-wise and exposes cache + engine metrics";
  (* counters agree with the engine's own report *)
  let counter name =
    match Mae_obs.Metrics.find_counter name with
    | Some c -> Mae_obs.Metrics.counter_value c
    | None -> fail "counter %s not registered" name
  in
  check
    (counter "mae_engine_modules_total" = 2 * stats.Mae_engine.modules
    && counter "mae_engine_modules_ok_total" = 2 * stats.Mae_engine.ok
    && counter "mae_engine_modules_failed_total" = 0)
    "registry counters agree with engine stats (2 batches of %d)"
    stats.Mae_engine.modules;
  (match Mae_obs.Json.parse (Mae_obs.Metrics.to_json ()) with
  | Ok _ -> ()
  | Error e -> fail "metrics JSON dump unparseable: %s" e);
  check true "metrics JSON dump parses";

  (* every exposed family carries # HELP and # TYPE metadata *)
  let count_prefix prefix =
    String.split_on_char '\n' prom
    |> List.filter (fun line ->
           String.length line >= String.length prefix
           && String.equal (String.sub line 0 (String.length prefix)) prefix)
    |> List.length
  in
  let helps = count_prefix "# HELP " and types = count_prefix "# TYPE " in
  check
    (helps > 0 && helps = types)
    "every metric family has # HELP and # TYPE (%d families)" helps;
  check
    (contains prom "# TYPE mae_engine_modules_total counter"
    && contains prom "# TYPE mae_engine_module_seconds_summary summary")
    "counter/summary TYPE lines present";

  (* (5) sketch accuracy: a synthetic stream's quantiles must sit
     within the advertised rank-error bound of the exact sorted pool *)
  let sk = Mae_obs.Sketch.create "mae_obs_smoke_sketch_seconds_summary" ~eps:0.005 in
  let n = 50_000 in
  let state = ref 0x1234ABCD in
  let samples =
    (* drand48's LCG: full 48-bit state, no float rounding artifacts *)
    List.init n (fun _ ->
        state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
        float_of_int ((!state lsr 16) land 0xFFFFF) /. 1e4)
  in
  List.iter (Mae_obs.Sketch.observe sk) samples;
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let bound = Mae_obs.Sketch.rank_error_bound sk ~n ~domains:1 in
  List.iter
    (fun q ->
      match Mae_obs.Sketch.quantile sk q with
      | None -> fail "sketch empty at q=%g" q
      | Some v ->
          let below = ref 0 and at_or_below = ref 0 in
          Array.iter
            (fun x ->
              if x < v then incr below;
              if x <= v then incr at_or_below)
            sorted;
          let target = q *. float_of_int n in
          let dist =
            if target < float_of_int !below then float_of_int !below -. target
            else if target > float_of_int !at_or_below then
              target -. float_of_int !at_or_below
            else 0.
          in
          check (dist <= bound)
            "sketch q=%g rank error %.1f within bound %.1f (n=%d)" q dist
            bound n)
    [ 0.5; 0.9; 0.99; 0.999 ];
  check
    (contains (Mae_obs.Metrics.to_prometheus ())
       "mae_engine_module_seconds_summary{quantile=")
    "engine latency sketch rides along in the /metrics exposition";

  (* (6) registry-time name lint: anything outside mae_[a-z0-9_]+ is
     rejected at registration, for metrics and sketches alike *)
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check
    (rejects (fun () -> Mae_obs.Metrics.counter "bad name!")
    && rejects (fun () -> Mae_obs.Metrics.gauge "engine_modules")
    && rejects (fun () -> Mae_obs.Sketch.create "mae_Upper_seconds"))
    "metric and sketch name lint rejects non-mae_[a-z0-9_]+ names";

  (* (7) the runtime lens: gc.* slices land in the trace export, the
     /runtimez document is well-shaped, and the labelled pause family
     obeys the same lints as every other metric *)
  check (Mae_obs.Runtime.start ()) "runtime lens starts";
  let _ = run_batch ~jobs:2 in
  (* churn enough to guarantee pauses even on a fast host *)
  let junk = ref [] in
  for i = 1 to 400_000 do
    junk := (i, float_of_int i) :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  ignore (Sys.opaque_identity !junk);
  Gc.minor ();
  ignore (Mae_obs.Runtime.poll ());
  let doc = Mae_obs.Runtime.to_json () in
  (match Mae_obs.Json.member "enabled" doc with
  | Some (Mae_obs.Json.Bool true) -> ()
  | _ -> fail "/runtimez document lacks enabled: true");
  (match Mae_obs.Json.member "domains" doc with
  | Some (Mae_obs.Json.Array (_ :: _)) -> ()
  | _ -> fail "/runtimez document has no domains");
  (match
     Option.bind (Mae_obs.Json.member "pause" doc)
       (Mae_obs.Json.member "count")
   with
  | Some (Mae_obs.Json.Number n) when n > 0. -> ()
  | _ -> fail "/runtimez pause.count is zero after an allocation storm");
  check
    (Option.is_some (Mae_obs.Json.member "process" doc))
    "/runtimez is well-shaped (enabled, domains, pauses, process)";
  Mae_obs.Runtime.stop ();
  let gc_trace_path = "obs_smoke_trace_gc.json" in
  (match Mae_obs.Trace.write_chrome ~path:gc_trace_path with
  | Ok () -> ()
  | Error e -> fail "gc trace write failed: %s" e);
  let gc_trace =
    match
      Mae_obs.Json.parse
        (In_channel.with_open_text gc_trace_path In_channel.input_all)
    with
    | Ok t -> t
    | Error e -> fail "gc trace JSON unparseable: %s" e
  in
  let gc_slices =
    List.filter
      (fun e ->
        match Mae_obs.Json.(Option.bind (member "name" e) to_string) with
        | Some n -> String.length n >= 3 && String.equal (String.sub n 0 3) "gc."
        | None -> false)
      (span_events gc_trace)
  in
  check
    (List.length gc_slices > 0)
    "trace export interleaves %d gc.* slices with the pipeline spans"
    (List.length gc_slices);
  check
    (List.exists
       (fun e ->
         match Mae_obs.Json.(Option.bind (member "cat" e) to_string) with
         | Some "gc" -> true
         | _ -> false)
       gc_slices)
    "gc slices carry their own trace category";
  let prom_gc = Mae_obs.Metrics.to_prometheus () in
  check
    (contains prom_gc "mae_gc_pause_seconds_summary{domain=\""
    && contains prom_gc "# TYPE mae_gc_pause_seconds_summary summary"
    && contains prom_gc "# TYPE mae_gc_minor_collections_total counter"
    && contains prom_gc "# TYPE mae_process_domains gauge")
    "mae_gc_*/mae_process_* families exported with TYPE metadata";
  let count_in prefix =
    String.split_on_char '\n' prom_gc
    |> List.filter (fun line ->
           String.length line >= String.length prefix
           && String.equal (String.sub line 0 (String.length prefix)) prefix)
    |> List.length
  in
  check
    (count_in "# HELP " = count_in "# TYPE ")
    "HELP/TYPE parity holds with the labelled gc family present";
  check
    (rejects (fun () ->
         Mae_obs.Sketch.create
           ~labels:[ ("Domain", "0") ]
           "mae_bad_label_seconds_summary")
    && rejects (fun () ->
           Mae_obs.Sketch.create
             ~labels:[ ("d", "a\"b") ]
             "mae_bad_value_seconds_summary")
    && rejects (fun () ->
           Mae_obs.Sketch.create
             ~labels:[ ("d", "1"); ("d", "2") ]
             "mae_dup_label_seconds_summary"))
    "sketch label lint rejects bad keys, quoted values and duplicates";

  Mae_obs.set_enabled false;
  print_endline "obs-smoke: all checks passed"

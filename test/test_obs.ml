(* The observability layer: span recording and nesting, Chrome trace
   export well-formedness, metrics registry correctness, and the
   guarantee that telemetry never changes an estimate. *)

module Obs = Mae_obs
module Span = Mae_obs.Span
module Metrics = Mae_obs.Metrics
module Json = Mae_obs.Json

let registry = Mae_tech.Registry.create ()

let random_batch ?(first_seed = 4000) n =
  List.init n (fun i ->
      Mae_workload.Random_circuit.generate
        ~name:(Printf.sprintf "obs%02d" i)
        ~rng:(Mae_prob.Rng.create ~seed:(first_seed + i))
        {
          Mae_workload.Random_circuit.default_params with
          devices = 20 + (i mod 5) * 10;
        })

(* --- Json --- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\n\"yé", "c": {"t": true, "n": null}}|} with
  | Json.Object fields ->
      Alcotest.(check int) "three members" 3 (List.length fields);
      (match List.assoc "a" fields with
      | Json.Array [ Json.Number a; Json.Number b; Json.Number c ] ->
          Alcotest.(check (float 1e-9)) "1" 1. a;
          Alcotest.(check (float 1e-9)) "2.5" 2.5 b;
          Alcotest.(check (float 1e-9)) "-300" (-300.) c
      | _ -> Alcotest.fail "array member")
  | _ -> Alcotest.fail "object expected");
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "[1] trailing";
  bad "\"unterminated";
  bad "nul";
  (* escape/parse round trip *)
  let tricky = "a\"b\\c\nd\te\r\x01" in
  match Json.parse (Json.escape tricky) with
  | Ok (Json.String s) -> Alcotest.(check string) "round trip" tricky s
  | _ -> Alcotest.fail "escape round trip"

(* The run-copying string reader against the char-by-char oracle: the
   same value, or the same error text with the same offset. *)
let json_oracle_props =
  let open QCheck2.Gen in
  let piece =
    oneof
      [
        oneofl
          [ {|\n|}; {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\r|}; {|\t|}; {|\u00e9|};
            {|\u0000|}; {|\uD83D\uDE00|}; {|\uDBFF\uDFFF|}; {|\uD800|}; {|\uDC00|};
            {|\uD800A|}; {|\uD800x|}; {|\uD800\|}; {|\u12|}; {|\uZZZZ|}; {|\x|};
            {|\|}; "abc"; "hdl module m"; "\xc3\xa9"; "\xff"; " "; "\x7f"; "\"" ];
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
        map (Printf.sprintf "\\u%04x") (int_range 0 0xffff);
        map2 (Printf.sprintf "\\u%04X\\u%04X") (int_range 0xd800 0xdbff) (int_range 0xdc00 0xdfff);
        string_size ~gen:(char_range ' ' '~') (int_range 0 40);
      ]
  in
  let soup = map (String.concat "") (list_size (int_range 0 12) piece) in
  let document =
    oneof
      [
        map (fun s -> "\"" ^ s ^ "\"") soup;
        map (fun s -> "\"" ^ s) soup;
        map2 (Printf.sprintf {|{"hdl": "%s", "id": "%s"}|}) soup soup;
        map2 (Printf.sprintf {|["%s", 1, {"%s": null}]|}) soup soup;
      ]
  in
  let same text = Json.parse text = Mae_test_support.Json_oracle.parse text in
  [
    Mae_test_support.Support.qtest ~count:2000 "json reader = oracle on arbitrary bytes"
      (string_size (int_range 0 64)) same;
    Mae_test_support.Support.qtest ~count:3000 "json reader = oracle on escape soups" document
      same;
    Mae_test_support.Support.qtest ~count:2000 "json reader = oracle on truncations"
      (pair document nat)
      (fun (text, cut) -> same (String.sub text 0 (cut mod (String.length text + 1))));
  ]

(* --- spans --- *)

let test_span_recording () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  Span.with_ ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
      Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 1));
      Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 2)));
  (match Span.with_ ~name:"boom" (fun () -> raise Exit) with
  | () -> Alcotest.fail "Exit expected"
  | exception Exit -> ());
  let events = Span.events () in
  Alcotest.(check int) "four spans" 4 (List.length events);
  let outer =
    List.find (fun (e : Span.event) -> String.equal e.name "outer") events
  in
  let inners =
    List.filter (fun (e : Span.event) -> String.equal e.name "inner") events
  in
  Alcotest.(check int) "outer at depth 0" 0 outer.depth;
  List.iter
    (fun (i : Span.event) ->
      Alcotest.(check int) "inner at depth 1" 1 i.depth;
      Alcotest.(check bool) "inner within outer" true
        (i.ts >= outer.ts && i.ts +. i.dur <= outer.ts +. outer.dur +. 1e-6))
    inners;
  let child_time =
    List.fold_left (fun acc (i : Span.event) -> acc +. i.dur) 0. inners
  in
  Alcotest.(check (float 1e-6))
    "outer self = dur - children" (outer.dur -. child_time) outer.self;
  Alcotest.(check bool) "exception span still recorded" true
    (List.exists (fun (e : Span.event) -> String.equal e.name "boom") events);
  Span.reset ();
  Alcotest.(check int) "reset drops spans" 0 (List.length (Span.events ()))

(* A span given a summary is the region's one timer: exactly one
   sample, bit-equal to the span's [dur], on return and on a raise
   alike; with telemetry off, neither. *)
let test_span_feeds_summary () =
  let sk = Metrics.summary "mae_test_span_timer_seconds_summary" in
  let bits = Int64.bits_of_float in
  let check_one label thunk =
    Span.reset ();
    Mae_obs.Sketch.reset sk;
    (match Span.with_ ~name:label ~summary:sk thunk with
    | () -> ()
    | exception Exit -> ());
    let dur =
      match Span.events () with
      | [ e ] -> e.Span.dur
      | es -> Alcotest.failf "%s: %d spans, expected 1" label (List.length es)
    in
    let s = Mae_obs.Sketch.snapshot sk in
    Alcotest.(check int) (label ^ ": one sample") 1 s.n;
    Alcotest.(check int64) (label ^ ": sample is the span's dur") (bits dur)
      (bits s.sum);
    Alcotest.(check int64) (label ^ ": min is the span's dur") (bits dur)
      (bits s.min_v)
  in
  Obs.with_enabled true (fun () ->
      check_one "timed" (fun () -> ignore (Sys.opaque_identity 1));
      check_one "timed.raise" (fun () -> raise Exit));
  Obs.set_enabled false;
  Span.reset ();
  Mae_obs.Sketch.reset sk;
  Span.with_ ~name:"untimed" ~summary:sk (fun () -> ());
  Alcotest.(check int) "telemetry off: no span" 0 (List.length (Span.events ()));
  Alcotest.(check int) "telemetry off: no sample" 0
    (Mae_obs.Sketch.snapshot sk).n

let test_span_disabled_noop () =
  Obs.set_enabled false;
  Span.reset ();
  Span.with_ ~name:"invisible" (fun () -> ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.events ()))

(* Retention bounds the whole log, whichever domains wrote it: the
   workers of finished jobs:2 batches leave no untrimmed lane behind.
   [events_since] stays exact with several domains writing. *)
let test_span_retention_bounds_log () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  Span.set_retention (Some 50);
  Fun.protect
    ~finally:(fun () ->
      Span.set_retention None;
      Span.reset ())
    (fun () ->
      let batch = random_batch ~first_seed:4500 4 in
      for _ = 1 to 30 do
        ignore (Mae_engine.run_circuits ~jobs:2 ~registry batch)
      done;
      let n = List.length (Span.events ()) in
      if n > 100 then
        Alcotest.failf "%d spans retained after 30 jobs:2 batches (cap 2 x 50)" n;
      Span.set_retention None;
      let since = Obs.Clock.monotonic () in
      ignore (Mae_engine.run_circuits ~jobs:2 ~registry batch);
      let expected =
        List.filter (fun (e : Span.event) -> e.ts >= since) (Span.events ())
      in
      Alcotest.(check bool) "the last batch traced both workers" true
        (List.length
           (List.sort_uniq Int.compare
              (List.map (fun (e : Span.event) -> e.domain) expected))
        = 2);
      Alcotest.(check bool) "events_since = the filtered log" true
        (Span.events_since since = expected))

(* --- trace export: well-formed JSON, nested non-overlapping lanes --- *)

let x_events trace =
  match Option.bind (Json.member "traceEvents" trace) Json.to_list with
  | None -> Alcotest.fail "traceEvents missing"
  | Some l ->
      List.filter
        (fun e ->
          match Option.bind (Json.member "ph" e) Json.to_string with
          | Some "X" -> true
          | _ -> false)
        l

let num name e =
  match Option.bind (Json.member name e) Json.to_number with
  | Some f -> f
  | None -> Alcotest.failf "X event lacks numeric %s" name

(* stack discipline per lane (tid): strictly nested or disjoint *)
let check_nesting events =
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = int_of_float (num "tid" e) in
      let prev = Option.value (Hashtbl.find_opt lanes tid) ~default:[] in
      Hashtbl.replace lanes tid ((num "ts" e, num "dur" e) :: prev))
    events;
  Hashtbl.iter
    (fun tid spans ->
      let spans =
        List.sort
          (fun (t1, d1) (t2, d2) ->
            match Float.compare t1 t2 with
            | 0 -> Float.compare d2 d1
            | c -> c)
          spans
      in
      let tolerance = 1.0 (* µs *) in
      let stack = ref [] in
      List.iter
        (fun (ts, dur) ->
          let rec unwind () =
            match !stack with
            | (pts, pdur) :: rest when ts >= pts +. pdur -. tolerance ->
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (pts, pdur) :: _ ->
              if ts +. dur > pts +. pdur +. tolerance then
                Alcotest.failf
                  "lane %d: span [%f, +%f] partially overlaps [%f, +%f]" tid ts
                  dur pts pdur
          | [] -> ());
          stack := (ts, dur) :: !stack)
        spans)
    lanes

let trace_roundtrip ~jobs () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  let batch = random_batch 10 in
  let results = Mae_engine.run_circuits ~jobs ~registry batch in
  Alcotest.(check int) "batch ran" 10 (List.length results);
  let trace =
    match Json.parse (Mae_obs.Trace.to_chrome_string ()) with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace JSON: %s" e
  in
  let events = x_events trace in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string) events
  in
  let count name = List.length (List.filter (String.equal name) names) in
  (* one span per Figure-1 stage per module, one module parent each;
     estimators run under per-methodology method.<name> spans *)
  List.iter
    (fun stage -> Alcotest.(check int) stage 10 (count stage))
    [
      "driver.module"; "driver.validate"; "driver.expand"; "driver.stats";
      "method.stdcell"; "method.fullcustom-exact"; "method.fullcustom-average";
    ];
  Alcotest.(check int) "one batch span" 1 (count "engine.batch");
  check_nesting events;
  Span.reset ()

let test_trace_seq () = trace_roundtrip ~jobs:1 ()
let test_trace_par () = trace_roundtrip ~jobs:4 ()

(* --- metrics --- *)

let test_metrics_registry () =
  let c = Metrics.counter "mae_test_obs_counter_total" in
  let c' = Metrics.counter "mae_test_obs_counter_total" in
  Metrics.reset_counter c;
  Metrics.incr c;
  Metrics.add c' 4;
  Alcotest.(check int) "idempotent registration shares state" 5
    (Metrics.counter_value c);
  (match Metrics.gauge "mae_test_obs_counter_total" with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ());
  (match Metrics.counter "bad name!" with
  | _ -> Alcotest.fail "invalid name must raise"
  | exception Invalid_argument _ -> ());
  let g = Metrics.gauge "mae_test_obs_gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.)) "gauge set/get" 2.5 (Metrics.gauge_value g)

let test_prometheus_format () =
  let prom = Metrics.to_prometheus () in
  Alcotest.(check bool) "non-empty" true (String.length prom > 0);
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if String.length line > 0 && not (Char.equal line.[0] '#') then
           match String.split_on_char ' ' line with
           | [ name; value ] ->
               Alcotest.(check bool)
                 (Printf.sprintf "parseable value in %S" line)
                 true
                 (Option.is_some (float_of_string_opt value));
               Alcotest.(check bool)
                 (Printf.sprintf "non-empty name in %S" line)
                 true (String.length name > 0)
           | _ -> Alcotest.failf "malformed line %S" line);
  match Json.parse (Metrics.to_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON dump: %s" e

(* --- one registry: no family exposed twice --- *)

(* The exposition problems a name clash would cause: a family with
   more than one # HELP or # TYPE line (or one without the other), or
   one series name with one label set printed twice.  [prefix]
   restricts the check to the names that start with it. *)
let exposition_problems ?(prefix = "") () =
  let count tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let helps = Hashtbl.create 64
  and types = Hashtbl.create 64
  and series = Hashtbl.create 256 in
  String.split_on_char '\n' (Metrics.to_prometheus ())
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | "#" :: "HELP" :: name :: _ -> count helps name
         | "#" :: "TYPE" :: name :: _ -> count types name
         | "#" :: _ | [ "" ] -> ()
         | key :: _ -> count series key
         | [] -> ());
  let mine k = String.starts_with ~prefix k in
  let bad what tbl =
    Hashtbl.fold
      (fun k n acc ->
        if mine k && n <> 1 then Printf.sprintf "%s %s x%d" what k n :: acc
        else acc)
      tbl []
  in
  let unpaired a b what =
    Hashtbl.fold
      (fun k _ acc ->
        if mine k && not (Hashtbl.mem b k) then (what ^ " " ^ k) :: acc
        else acc)
      a []
  in
  bad "# HELP" helps @ bad "# TYPE" types @ bad "series" series
  @ unpaired helps types "HELP without TYPE:"
  @ unpaired types helps "TYPE without HELP:"

(* One registration either raises Invalid_argument or leaves a valid
   exposition; a raise must leave it valid too. *)
let register_and_check ~prefix what f =
  (match f () with () -> () | exception Invalid_argument _ -> ());
  match exposition_problems ~prefix () with
  | [] -> true
  | problems ->
      QCheck2.Test.fail_reportf "after %s: %s" what
        (String.concat "; " problems)

type registration = Reg_counter | Reg_gauge | Reg_summary of (string * string) list

let register_as kind name () =
  match kind with
  | Reg_counter -> ignore (Metrics.counter name)
  | Reg_gauge -> ignore (Metrics.gauge name)
  | Reg_summary labels -> ignore (Metrics.summary ~labels name)

let test_clash_counter_then_summary () =
  ignore (Metrics.counter "mae_clash_seconds");
  Alcotest.(check bool) "a summary over a counter's name raises" true
    (match Metrics.summary "mae_clash_seconds" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (list string)) "exposition valid" [] (exposition_problems ())

let test_clash_counter_on_summary_count () =
  ignore (Metrics.summary "mae_clash_count_seconds");
  Alcotest.(check bool) "a counter named like a summary's _count raises" true
    (match Metrics.counter "mae_clash_count_seconds_count" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  ignore (Metrics.counter "mae_clash_sum_seconds_sum");
  Alcotest.(check bool) "a summary whose _sum is a counter raises" true
    (match Metrics.summary "mae_clash_sum_seconds" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (list string)) "exposition valid" [] (exposition_problems ())

(* Random registration sequences over a small pool of names shared by
   every kind, with summary suffixes among them; each sequence gets
   fresh names, so the registry grows but sequences never interact. *)
let clash_prop =
  let open QCheck2.Gen in
  let kind =
    oneof
      [
        pure Reg_counter;
        pure Reg_gauge;
        map (fun l -> Reg_summary l)
          (oneofl [ []; [ ("domain", "0") ]; [ ("domain", "1") ] ]);
      ]
  in
  let reg =
    triple kind (oneofl [ "a"; "b_seconds" ]) (oneofl [ ""; "_sum"; "_count" ])
  in
  let sequence = ref 0 in
  Mae_test_support.Support.qtest ~count:100
    "registrations never expose a family twice"
    (list_size (int_range 1 6) reg)
    (fun regs ->
      incr sequence;
      let prefix = Printf.sprintf "mae_clashprop%d_" !sequence in
      List.for_all
        (fun (kind, base, suffix) ->
          let name = prefix ^ base ^ suffix in
          let what =
            match kind with
            | Reg_counter -> "counter " ^ name
            | Reg_gauge -> "gauge " ^ name
            | Reg_summary l ->
                Printf.sprintf "summary %s (%d labels)" name (List.length l)
          in
          register_and_check ~prefix what (register_as kind name))
        regs)

let test_metrics_match_engine () =
  let counter name =
    match Metrics.find_counter name with
    | Some c -> Metrics.counter_value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let modules_before = counter "mae_engine_modules_total" in
  let ok_before = counter "mae_engine_modules_ok_total" in
  let batch = random_batch 8 in
  let results, stats = Mae_engine.run_circuits_with_stats ~jobs:2 ~registry batch in
  Alcotest.(check int) "modules counter delta" stats.Mae_engine.modules
    (counter "mae_engine_modules_total" - modules_before);
  Alcotest.(check int) "ok counter delta" stats.Mae_engine.ok
    (counter "mae_engine_modules_ok_total" - ok_before);
  Alcotest.(check int) "ok = Ok slots"
    (List.length (List.filter Result.is_ok results))
    stats.Mae_engine.ok;
  Alcotest.(check int) "per-domain counts sum to modules"
    stats.Mae_engine.modules
    (Array.fold_left ( + ) 0 stats.Mae_engine.per_domain)

(* Mae_obs.reset must empty the latency summaries, not only the
   counters: after a telemetry-on batch, the engine queue-wait, driver
   stage and methodology summaries all read empty again. *)
let test_reset_empties_sketches () =
  let names =
    [
      "mae_engine_queue_wait_seconds_summary";
      "mae_driver_module_seconds_summary";
      "mae_method_stdcell_seconds_summary";
    ]
  in
  let sketches = List.map (fun name -> (name, Metrics.summary name)) names in
  let n sk = (Mae_obs.Sketch.snapshot sk).Mae_obs.Sketch.n in
  ignore
    (Obs.with_enabled true (fun () ->
         Mae_engine.run_circuits ~jobs:2 ~registry (random_batch 4)));
  List.iter
    (fun (name, sk) ->
      Alcotest.(check bool) (name ^ " populated by the batch") true (n sk > 0))
    sketches;
  Obs.reset ();
  List.iter
    (fun (name, sk) ->
      Alcotest.(check int) (name ^ " empty after reset") 0 (n sk))
    sketches

(* --- telemetry must never change an estimate --- *)

let bits = Int64.bits_of_float

let digest results =
  List.map
    (function
      | Ok (r : Mae.Driver.module_report) ->
          ( r.circuit.Mae_netlist.Circuit.name,
            List.concat_map
              (fun (mr : Mae.Driver.method_result) ->
                match mr.outcome with
                | Ok outcome ->
                    let d = Mae.Methodology.dims outcome in
                    List.map bits [ d.area; d.height; d.width ]
                | Error _ -> [])
              r.results
            @ List.map
                (fun (s : Mae.Estimate.stdcell) -> bits s.area)
                (Mae.Driver.stdcell_sweep r) )
      | Error e -> (Format.asprintf "%a" Mae_engine.pp_error e, []))
    results

let test_disabled_identical () =
  let batch = random_batch 12 in
  (* the same registered summary the driver's module stage observes
     into *)
  let module_sketch = Metrics.summary "mae_driver_module_seconds_summary" in
  let sketch_count () = (Mae_obs.Sketch.snapshot module_sketch).Mae_obs.Sketch.n in
  Obs.set_enabled false;
  let sketch_before_off = sketch_count () in
  let off = Mae_engine.run_circuits ~jobs:2 ~registry batch in
  Alcotest.(check int)
    "telemetry off records no sketch samples" sketch_before_off
    (sketch_count ());
  let sketch_before_on = sketch_count () in
  let on =
    Obs.with_enabled true (fun () ->
        Mae_engine.run_circuits ~jobs:2 ~registry batch)
  in
  Alcotest.(check int)
    "telemetry on records one sketch sample per module"
    (sketch_before_on + List.length batch)
    (sketch_count ());
  Span.reset ();
  Alcotest.(check (list (pair string (list int64))))
    "telemetry on/off bit-for-bit" (digest off) (digest on)

(* --- flame summary with zero-duration spans --- *)

let test_flame_zero_duration () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  (* empty bodies: durations at or below clock resolution, several
     exactly 0.0 -- the summary must not divide by a zero grand total
     or print nan/inf *)
  for _ = 1 to 50 do
    Span.with_ ~name:"instant" (fun () -> ())
  done;
  let rows = Mae_obs.Trace.flame () in
  Alcotest.(check int) "one aggregated row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check int) "all calls counted" 50 r.Mae_obs.Trace.calls;
  Alcotest.(check bool) "self time finite and >= 0" true
    (Float.is_finite r.Mae_obs.Trace.self_s && r.Mae_obs.Trace.self_s >= 0.);
  let summary = Mae_obs.Trace.flame_summary () in
  Alcotest.(check bool) "summary non-empty" true (String.length summary > 0);
  let lower = String.lowercase_ascii summary in
  let contains needle =
    let n = String.length needle and m = String.length lower in
    let rec at i = i + n <= m && (String.equal (String.sub lower i n) needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "no nan in summary" false (contains "nan");
  Alcotest.(check bool) "no inf in summary" false (contains "inf");
  Span.reset ()

(* --- sketch observations at 0, huge, and negative values --- *)

let test_sketch_extremes () =
  let sk = Metrics.summary "mae_test_obs_extreme_seconds_summary" in
  List.iter (Mae_obs.Sketch.observe sk) [ 0.; 1e308; -5.; Float.min_float ];
  let s = Mae_obs.Sketch.snapshot sk in
  Alcotest.(check int) "every observation counted" 4 s.Mae_obs.Sketch.n;
  Alcotest.(check (float 1e292)) "sum is the plain total" (1e308 -. 5.)
    s.Mae_obs.Sketch.sum;
  Alcotest.(check (float 0.)) "min is exact" (-5.) s.Mae_obs.Sketch.min_v;
  Alcotest.(check (float 0.)) "max is exact" 1e308 s.Mae_obs.Sketch.max_v;
  (* the exposition must stay parseable: every sample line is one name
     (labels included) and one float *)
  String.split_on_char '\n' (Metrics.to_prometheus ())
  |> List.iter (fun line ->
         if String.length line > 0 && not (Char.equal line.[0] '#') then
           match String.split_on_char ' ' line with
           | [ name; value ] when String.length name > 0 ->
               Alcotest.(check bool)
                 (Printf.sprintf "parseable value in %S" line)
                 true
                 (Option.is_some (float_of_string_opt value))
           | _ -> Alcotest.failf "malformed line %S" line);
  match Json.parse (Metrics.to_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON with extreme sums: %s" e

(* --- Log: JSON-lines escaping, levels, request ids, disabled no-op --- *)

module Log = Mae_obs.Log

let read_log path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.map (fun line ->
         match Json.parse line with
         | Ok doc -> doc
         | Error e -> Alcotest.failf "log line not JSON (%s): %S" e line)

let test_log_escaping () =
  let path = "test_obs_log.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (match Log.set_sink_file path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sink: %s" e);
  Log.set_threshold (Some Log.Info);
  let tricky = "ctl\x01\x1f tab\t nl\n quote\" backslash\\ crlf\r\n" in
  Log.info ~event:"test.escape"
    [
      ("s", Log.Str tricky);
      ("i", Log.Int (-42));
      ("f", Log.Float 2.5);
      ("b", Log.Bool true);
    ];
  Log.with_request_id "r99" (fun () ->
      Log.warn ~event:"test.scoped" [ ("k", Log.Str "v") ]);
  (* below threshold: dropped *)
  Log.debug ~event:"test.dropped" [];
  Log.set_threshold None;
  (* disabled: dropped even at Error *)
  Log.error ~event:"test.disabled" [];
  Log.close ();
  let records = read_log path in
  Alcotest.(check int) "two records survive the threshold" 2
    (List.length records);
  let first = List.nth records 0 in
  (match Json.member "s" first with
  | Some (Json.String s) ->
      Alcotest.(check string) "control chars and quotes round-trip" tricky s
  | _ -> Alcotest.fail "field s missing");
  Alcotest.(check bool) "level recorded" true
    (Json.member "level" first = Some (Json.String "info"));
  Alcotest.(check bool) "int field" true
    (Option.bind (Json.member "i" first) Json.to_number = Some (-42.));
  Alcotest.(check bool) "bool field" true
    (Json.member "b" first = Some (Json.Bool true));
  Alcotest.(check bool) "unscoped record has no request_id" true
    (Json.member "request_id" first = None);
  let second = List.nth records 1 in
  Alcotest.(check bool) "request id scoped" true
    (Json.member "request_id" second = Some (Json.String "r99"));
  Alcotest.(check bool) "request id restored" true
    (Log.current_request_id () = None);
  Sys.remove path

let test_log_levels () =
  Alcotest.(check bool) "off by default here" false (Log.enabled Log.Error);
  Log.set_threshold (Some Log.Warn);
  Alcotest.(check bool) "warn on at warn" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "error on at warn" true (Log.enabled Log.Error);
  Alcotest.(check bool) "info off at warn" false (Log.enabled Log.Info);
  Alcotest.(check bool) "threshold readable" true
    (Log.current_threshold () = Some Log.Warn);
  Log.set_threshold None;
  List.iter
    (fun (s, l) -> Alcotest.(check bool) s true (Log.level_of_string s = l))
    [
      ("debug", Some Log.Debug);
      ("info", Some Log.Info);
      ("warn", Some Log.Warn);
      ("warning", Some Log.Warn);
      ("error", Some Log.Error);
      ("verbose", None);
    ]

(* --- Clock: monotonic timebase for span/latency timing --- *)

let test_clock_monotonic () =
  let a = Mae_obs.Clock.monotonic () in
  let b = Mae_obs.Clock.monotonic () in
  Alcotest.(check bool) "never goes backwards" true (b >= a);
  Alcotest.(check bool) "finite" true (Float.is_finite a);
  (* converting the current monotonic instant lands near current wall *)
  let wall_now = Mae_obs.Clock.wall () in
  let converted = Mae_obs.Clock.wall_of_monotonic (Mae_obs.Clock.monotonic ()) in
  Alcotest.(check bool) "wall_of_monotonic tracks wall clock" true
    (Float.abs (converted -. wall_now) < 60.)

(* --- Sketch: rank-error property against the exact sorted pool --- *)

(* deterministic pseudo-random stream, no global Random state *)
let lcg_stream seed n =
  let state = ref (Int64.of_int seed) in
  List.init n (fun _ ->
      state :=
        Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
      let bits = Int64.to_int (Int64.shift_right_logical !state 17) land 0xFFFFFF in
      float_of_int bits /. 1e3)

(* every queried quantile must land within the advertised rank-error
   bound of its target rank in the exact pooled sorted sample set *)
let assert_within_bound sk samples ~domains =
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length sorted in
  let bound = Mae_obs.Sketch.rank_error_bound sk ~n ~domains in
  List.iter
    (fun q ->
      match Mae_obs.Sketch.quantile sk q with
      | None -> Alcotest.failf "quantile %g of %d samples: empty sketch" q n
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
          Alcotest.(check bool)
            (Printf.sprintf "q=%g: value %g rank error %.1f within bound %.1f"
               q v dist bound)
            true (dist <= bound))
    [ 0.; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1. ]

let test_sketch_streams () =
  let streams =
    [
      ("uniform", lcg_stream 42 20_000);
      ("sorted", List.init 20_000 float_of_int);
      ("reversed", List.init 20_000 (fun i -> float_of_int (20_000 - i)));
      ("constant", List.init 5_000 (fun _ -> 7.5));
      ( "two_spike",
        List.init 10_000 (fun i -> if i mod 2 = 0 then 1. else 1000.) );
    ]
  in
  List.iteri
    (fun i (label, samples) ->
      let sk =
        Metrics.summary
          (Printf.sprintf "mae_test_sketch_stream%d_seconds_summary" i)
          ~eps:0.01
      in
      Mae_obs.Sketch.reset sk;
      List.iter (Mae_obs.Sketch.observe sk) samples;
      assert_within_bound sk samples ~domains:1;
      let s = Mae_obs.Sketch.snapshot sk in
      Alcotest.(check int) (label ^ ": count") (List.length samples) s.n;
      Alcotest.(check (float 1e-6))
        (label ^ ": exact min")
        (List.fold_left Float.min Float.infinity samples)
        s.min_v;
      Alcotest.(check (float 1e-6))
        (label ^ ": exact max")
        (List.fold_left Float.max Float.neg_infinity samples)
        s.max_v;
      (* the point of a sketch: summary stays small however long the
         stream (GK: O((1/eps) log(eps n)) tuples) *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d tuples bounded" label s.tuples)
        true
        (s.tuples <= 2000))
    streams

let test_sketch_merged_domains () =
  let sk = Metrics.summary "mae_test_sketch_merged_seconds_summary" ~eps:0.01 in
  Mae_obs.Sketch.reset sk;
  let domains = 4 in
  let per_domain = 10_000 in
  let chunks =
    List.init domains (fun d -> lcg_stream (100 + d) per_domain)
  in
  (* concurrent hammer: four domains observe their chunks into the
     same sketch through its one lock *)
  let workers =
    List.map
      (fun chunk ->
        Domain.spawn (fun () -> List.iter (Mae_obs.Sketch.observe sk) chunk))
      chunks
  in
  List.iter Domain.join workers;
  let pooled = List.concat chunks in
  let s = Mae_obs.Sketch.snapshot sk in
  Alcotest.(check int) "merged count" (domains * per_domain) s.n;
  assert_within_bound sk pooled ~domains

(* Samples observed on a domain that is still alive are in every read at
   once, and [reset] drops them for good: nothing resurfaces when that
   domain later exits. *)
let observe_ten_live sk =
  Mae_test_support.Support.live_domain (fun () ->
      for i = 1 to 10 do
        Mae_obs.Sketch.observe sk (float_of_int i)
      done)

let sketch_count sk = (Mae_obs.Sketch.snapshot sk).Mae_obs.Sketch.n

let test_sketch_live_domain_visible () =
  let sk = Metrics.summary "mae_test_sketch_live_seconds_summary" in
  Mae_obs.Sketch.reset sk;
  let finish = observe_ten_live sk in
  let n = sketch_count sk in
  finish ();
  Alcotest.(check int) "live domain's samples counted" 10 n

let test_sketch_reset_outlives_domain () =
  let sk = Metrics.summary "mae_test_sketch_live_seconds_summary" in
  Mae_obs.Sketch.reset sk;
  let finish = observe_ten_live sk in
  Mae_obs.Sketch.reset sk;
  finish ();
  Alcotest.(check int) "no sample back after the domain exits" 0
    (sketch_count sk)

let test_sketch_registry () =
  let a = Metrics.summary "mae_test_sketch_reg_seconds_summary" ~eps:0.02 in
  let b = Metrics.summary "mae_test_sketch_reg_seconds_summary" in
  Alcotest.(check bool) "idempotent registration shares state" true (a == b);
  Alcotest.(check (float 0.)) "eps preserved" 0.02 (Mae_obs.Sketch.eps b);
  (match Metrics.summary "mae_test_sketch_reg_seconds_summary" ~eps:0.5 with
  | _ -> Alcotest.fail "conflicting eps must raise"
  | exception Invalid_argument _ -> ());
  (* the registry's name lint: names outside mae_[a-z0-9_]+ are
     rejected *)
  List.iter
    (fun bad ->
      match Metrics.summary bad with
      | _ -> Alcotest.failf "bad sketch name %S must raise" bad
      | exception Invalid_argument _ -> ())
    [ "latency"; "mae_Upper_seconds"; "mae_sp ace"; "mae-dash" ];
  (* exemplars: the largest labelled observations survive *)
  Mae_obs.Sketch.reset a;
  Mae_obs.Sketch.observe_exemplar a ~label:"r1" 0.010;
  Mae_obs.Sketch.observe_exemplar a ~label:"r2" 5.0;
  Mae_obs.Sketch.observe_exemplar a ~label:"r3" 0.020;
  let s = Mae_obs.Sketch.snapshot a in
  (match s.exemplars with
  | (v, label, _) :: _ ->
      Alcotest.(check (float 0.)) "largest exemplar first" 5.0 v;
      Alcotest.(check string) "exemplar label" "r2" label
  | [] -> Alcotest.fail "exemplars missing");
  (* the one exporter writes summaries beside counters and gauges *)
  let prom = Metrics.to_prometheus () in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec at i =
      i + n <= m && (String.equal (String.sub hay i n) needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "summary in /metrics dump" true
    (contains "mae_test_sketch_reg_seconds_summary{quantile=" prom);
  Alcotest.(check bool) "exemplar comment in dump" true
    (contains "# EXEMPLAR mae_test_sketch_reg_seconds_summary" prom)

(* --- tail-based capture: bounded retention, errored always kept --- *)

let test_capture_retention () =
  Mae_obs.Capture.configure ~slow_k:4 ~errored_cap:8 ~max_spans:16 ();
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  (* sustained load: 200 ok requests with span trees, a few errored *)
  for i = 1 to 200 do
    let since = Mae_obs.Clock.monotonic () in
    Span.with_ ~name:"req.work" (fun () -> ignore (Sys.opaque_identity i));
    let ok = i mod 50 <> 0 in
    Mae_obs.Capture.record
      ~rid:(Printf.sprintf "r%d" i)
      ~ok
      ?error:(if ok then None else Some "boom")
      ~latency:(float_of_int i *. 1e-4)
      ~since ()
  done;
  let caps = Mae_obs.Capture.captures () in
  let errored =
    List.filter (fun c -> c.Mae_obs.Capture.cap_kind = `Errored) caps
  in
  let slow =
    List.filter (fun c -> c.Mae_obs.Capture.cap_kind = `Slow) caps
  in
  (* every errored request (4 of 200) retained, none evicted at cap 8 *)
  Alcotest.(check (list string))
    "all errored requests retained, newest first"
    [ "r200"; "r150"; "r100"; "r50" ]
    (List.map (fun c -> c.Mae_obs.Capture.cap_rid) errored);
  Alcotest.(check bool)
    (Printf.sprintf "slow captures bounded (%d <= 2k)" (List.length slow))
    true
    (List.length slow <= 2 * 4);
  (* the slowest retained slow capture is the slowest ok request *)
  (match slow with
  | c :: _ ->
      Alcotest.(check string) "slowest ok request captured" "r199"
        c.Mae_obs.Capture.cap_rid
  | [] -> Alcotest.fail "no slow captures");
  Alcotest.(check bool)
    (Printf.sprintf "resident %d within bound %d"
       (Mae_obs.Capture.resident_spans ())
       (Mae_obs.Capture.max_resident_spans ()))
    true
    (Mae_obs.Capture.resident_spans () <= Mae_obs.Capture.max_resident_spans ());
  (* FIFO eviction: overflow the errored ring, oldest drop off *)
  for i = 201 to 220 do
    let since = Mae_obs.Clock.monotonic () in
    Mae_obs.Capture.record
      ~rid:(Printf.sprintf "r%d" i)
      ~ok:false ~error:"boom" ~latency:1e-4 ~since ()
  done;
  let errored =
    List.filter
      (fun c -> c.Mae_obs.Capture.cap_kind = `Errored)
      (Mae_obs.Capture.captures ())
  in
  Alcotest.(check int) "errored ring capped" 8 (List.length errored);
  Alcotest.(check string) "newest errored kept" "r220"
    (List.hd errored).Mae_obs.Capture.cap_rid;
  Mae_obs.Capture.configure ();
  Span.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        Alcotest.test_case "parser + escape" `Quick test_json_parser :: json_oracle_props );
      ( "spans",
        [
          Alcotest.test_case "recording, nesting, self time" `Quick
            test_span_recording;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_noop;
          Alcotest.test_case "a span times its summary once" `Quick
            test_span_feeds_summary;
          Alcotest.test_case "retention bounds every domain's spans" `Quick
            test_span_retention_bounds_log;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome export jobs:1" `Quick test_trace_seq;
          Alcotest.test_case "chrome export jobs:4" `Quick test_trace_par;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry semantics" `Quick test_metrics_registry;
          Alcotest.test_case "prometheus + json dumps" `Quick
            test_prometheus_format;
          Alcotest.test_case "counters match engine totals" `Quick
            test_metrics_match_engine;
          Alcotest.test_case "reset empties every sketch" `Quick
            test_reset_empties_sketches;
          Alcotest.test_case "name clash: summary over a counter" `Quick
            test_clash_counter_then_summary;
          Alcotest.test_case "name clash: counter on a summary's _count"
            `Quick test_clash_counter_on_summary_count;
          clash_prop;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "flame summary with zero-duration spans" `Quick
            test_flame_zero_duration;
          Alcotest.test_case "histogram at 0 / huge / negative" `Quick
            test_sketch_extremes;
        ] );
      ( "log",
        [
          Alcotest.test_case "escaping + request ids round-trip" `Quick
            test_log_escaping;
          Alcotest.test_case "levels and thresholds" `Quick test_log_levels;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic timebase" `Quick test_clock_monotonic ]
      );
      ( "sketch",
        [
          Alcotest.test_case "rank bound on adversarial streams" `Quick
            test_sketch_streams;
          Alcotest.test_case "4-domain concurrent merge" `Quick
            test_sketch_merged_domains;
          Alcotest.test_case "live domain's samples read at once" `Quick
            test_sketch_live_domain_visible;
          Alcotest.test_case "reset outlives a live domain's exit" `Quick
            test_sketch_reset_outlives_domain;
          Alcotest.test_case "registry, lint, exemplars" `Quick
            test_sketch_registry;
        ] );
      ( "capture",
        [
          Alcotest.test_case "bounded tail retention" `Quick
            test_capture_retention;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "telemetry never changes estimates" `Quick
            test_disabled_identical;
        ] );
    ]

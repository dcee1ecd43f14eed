(* perfbench: the repository benchmark.

   main.exe --workload batch-mixed|serve-hot|serve-cold --seed N
            --seconds S --trace 0|1 [--mae PATH]

   Generates the workload from the seed, drives the mae CLI or the
   mae serve daemon from outside, checks every answer bit for bit
   against an in-process reference, and prints one JSON result as the
   last line of stdout.  --trace 0 reports the end-to-end metrics;
   --trace 1 runs the program with its own instrumentation on and
   replays the same inputs in-process through the library's public
   functions, reporting per-layer self times.  See perfbench/README.md. *)

module Stats = Perfbench_stats.Stats
module Json = Mae_obs.Json
module Record = Mae_db.Record

let now = Mae_obs.Clock.monotonic
let registry = Workload.registry

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Proc.kill_all ();
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let log fmt = Printf.ksprintf prerr_endline fmt

(* --- arguments --- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let mae = ref "_build/default/bin/mae_cli.exe"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " batch-mixed|serve-hot|serve-cold");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer");
      ("--mae", Arg.Set_string mae, " path of the mae CLI executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let dir =
  let d = Filename.concat "_perfbench" (Printf.sprintf "%s-%d" !workload !seed) in
  let rec mkdir p =
    if not (Sys.file_exists p) then begin
      mkdir (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mkdir d;
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let path f = Filename.concat dir f

(* --- result stamp --- *)

let nproc = Domain.recommended_domain_count ()

let stamp () =
  let loadavg =
    match Proc.read_file "/proc/loadavg" with
    | s -> String.concat " " (List.filteri (fun i _ -> i < 3) (String.split_on_char ' ' s))
    | exception Sys_error _ -> "unknown"
  in
  let git =
    if not (Sys.file_exists ".git") then "unknown (not a git checkout)"
    else begin
      let out = path "git-head.txt" in
      match Proc.run ~stdout:out ~stderr:out "git" [ "rev-parse"; "HEAD" ] with
      | _, { Proc.code = 0; _ } -> String.trim (Proc.read_file out)
      | _ -> "unknown"
      | exception Unix.Unix_error _ -> "unknown"
    end
  in
  [
    ("workload", Json.String !workload);
    ("seed", Json.Number (Float.of_int !seed));
    ("seconds", Json.Number !seconds);
    ("trace", Json.Number (Float.of_int !trace));
    ("nproc", Json.Number (Float.of_int nproc));
    ("loadavg", Json.String loadavg);
    ("ocaml", Json.String Sys.ocaml_version);
    ("git_commit", Json.String git);
  ]

(* --- per-phase tallies --- *)

type tally = {
  phase : string;
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;  (** errors and unanswered requests *)
  mutable shed : int;
  mutable wrong : int;
}

let tally phase = { phase; sent = 0; ok = 0; failed = 0; shed = 0; wrong = 0 }

let tally_json t =
  Json.Object
    [
      ("phase", Json.String t.phase);
      ("sent", Json.Number (Float.of_int t.sent));
      ("ok", Json.Number (Float.of_int t.ok));
      ("failed", Json.Number (Float.of_int t.failed));
      ("shed", Json.Number (Float.of_int t.shed));
      ("wrong", Json.Number (Float.of_int t.wrong));
    ]

(* --- the output --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let emit ~tallies ~detail metrics =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let attempted = sum (fun t -> t.sent) in
  let wrong = sum (fun t -> t.wrong) in
  let failed = sum (fun t -> t.failed + t.shed + t.wrong) in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        die "metric %s is not finite (%f); run invalid" x.name x.value)
    metrics;
  List.iter
    (fun t ->
      log "phase %-12s sent %6d ok %6d failed %d shed %d wrong %d" t.phase
        t.sent t.ok t.failed t.shed t.wrong)
    tallies;
  List.iter (fun x -> log "  %-32s %14.6g %s" x.name x.value x.unit_) metrics;
  print_endline
    (Json.encode
       (Json.Object
          [
            ( "perfbench",
              Json.Object
                (stamp ()
                @ [ ("phases", Json.Array (List.map tally_json tallies)) ]
                @ detail) );
          ]));
  let result =
    Json.Object
      [
        ("correct", Json.Bool (wrong = 0));
        ("attempted", Json.Number (Float.of_int (max 1 attempted)));
        ("failed", Json.Number (Float.of_int failed));
        ( "metrics",
          Json.Object
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Object
                     [
                       ("value", Json.Number x.value);
                       ("unit", Json.String x.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Json.encode result);
  if wrong > 0 then begin
    prerr_endline "perfbench: wrong answers (see the phases above)";
    exit 1
  end

let num x = Json.Number x

(* The per-layer metric names, in BENCHMARK.json order; a workload
   where one does not apply reports 0 and lists it as such. *)
let per_layer_names =
  [
    "hdl.parse_s"; "netlist.validate_s"; "netlist.stats_s";
    "netlist.canonical_s"; "celllib.expand_s"; "core.stdcell_s";
    "core.fullcustom-exact_s"; "core.fullcustom-average_s"; "core.gatearray_s";
    "prob.kernel_hit_ratio"; "prob.kernel_entries"; "engine.overhead_s";
    "db.key_s"; "db.find_s"; "db.store_s"; "db.hit_ratio"; "serve.decode_s";
    "serve.encode_s"; "serve.daemon_p50_s"; "serve.daemon_p99_s"; "serve.wire_s";
    "serve.queue_s"; "serve.batch_requests_mean"; "serve.conn_reused_ratio";
    "gc.alloc_words_per_module"; "gc.pause_p99_s"; "gc.request_gc_s_p99";
    "gen.late_p99_s"; "trace.unattributed_frac"; "trace.overhead_frac";
    "failed_frac"; "serve.p50_s"; "serve.p99_s";
  ]

let unit_of name =
  if String.ends_with ~suffix:"_s" name || name = "gc.request_gc_s_p99" then "s"
  else
    match name with
    | "prob.kernel_entries" -> "count"
    | "serve.batch_requests_mean" -> "requests"
    | "gc.alloc_words_per_module" -> "words"
    | _ -> "ratio"

let emit_per_layer ~tallies ~detail values =
  let metrics =
    List.map
      (fun name ->
        m name (unit_of name)
          (Option.value (List.assoc_opt name values) ~default:0.))
      per_layer_names
  in
  let na =
    List.filter (fun n -> not (List.mem_assoc n values)) per_layer_names
  in
  emit ~tallies
    ~detail:
      (detail
      @ [ ("not_applicable", Json.Array (List.map (fun n -> Json.String n) na)) ]
      )
    metrics

let failed_frac tallies =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  Float.of_int (sum (fun t -> t.failed + t.shed + t.wrong))
  /. Float.of_int (max 1 (sum (fun t -> t.sent)))

(* --- bit-for-bit checks --- *)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_record (a : Record.t) (b : Record.t) =
  a.module_name = b.module_name
  && a.technology = b.technology
  && a.devices = b.devices && a.nets = b.nets && a.ports = b.ports
  && a.sc_rows = b.sc_rows && a.sc_tracks = b.sc_tracks
  && a.sc_feed_throughs = b.sc_feed_throughs
  && same a.sc_width b.sc_width && same a.sc_height b.sc_height
  && same a.sc_area b.sc_area && same a.sc_aspect b.sc_aspect
  && same a.fc_exact_area b.fc_exact_area
  && same a.fc_exact_aspect b.fc_exact_aspect
  && same a.fc_average_area b.fc_average_area
  && same a.fc_average_aspect b.fc_average_aspect
  && List.length a.shapes = List.length b.shapes
  && List.for_all2
       (fun (w, h) (w', h') -> same w w' && same h h')
       a.shapes b.shapes

let reference ~methods circuits =
  List.map
    (function
      | Ok r -> r
      | Error e ->
          die "reference run failed: %s" (Format.asprintf "%a" Mae.Driver.pp_error e))
    (Mae.Driver.run_circuits ~methods ~registry circuits)

(* What a response must say about one module: per methodology, the
   dimensions (None for an error).  Compact, so serve-cold can hold one
   per request. *)
type expect = {
  e_name : string;
  e_results : (string * (float * float * float) option) list;
}

let expect_of (r : Mae.Driver.module_report) =
  {
    e_name = r.circuit.Mae_netlist.Circuit.name;
    e_results =
      List.map
        (fun (mr : Mae.Driver.method_result) ->
          ( Mae.Methodology.name mr.methodology,
            match mr.outcome with
            | Ok o ->
                let d = Mae.Methodology.dims o in
                Some (d.area, d.width, d.height)
            | Error _ -> None ))
        r.results;
  }

let matches (r : Mae.Driver.module_report) e =
  let got = expect_of r in
  got.e_name = e.e_name
  && List.length got.e_results = List.length e.e_results
  && List.for_all2
       (fun (n, d) (n', d') ->
         n = n'
         &&
         match (d, d') with
         | Some (a, w, h), Some (a', w', h') -> same a a' && same w w' && same h h'
         | None, None -> true
         | _ -> false)
       got.e_results e.e_results

let circuits_of_hdl hdl =
  match Mae.Driver.string_circuits hdl with
  | Ok cs -> cs
  | Error e -> die "generated HDL does not parse: %s" (Format.asprintf "%a" Mae.Driver.pp_error e)

(* One serve response body against the reference report of its
   circuit: every methodology's area, width and height as Int64 bits,
   and the "cached" flag the workload demands. *)
let serve_body_ok ~cached e body =
  let ( let* ) = Option.bind in
  let check =
    let* doc = Result.to_option (Json.parse body) in
    let* ok = Json.member "ok" doc in
    let* c = Json.member "cached" doc in
    let* mods = Option.bind (Json.member "modules" doc) Json.to_list in
    match (ok, c, mods) with
    | Json.Bool true, Json.Bool c, [ md ] when c = cached ->
        let* name = Option.bind (Json.member "name" md) Json.to_string in
        let* methods = Json.member "methods" md in
        Some
          (name = e.e_name
          && List.for_all
               (fun (mname, dims) ->
                 match Json.member mname methods with
                 | None -> false
                 | Some o -> (
                     let field k = Option.bind (Json.member k o) Json.to_number in
                     match (dims, Json.member "ok" o) with
                     | Some (a, w, h), Some (Json.Bool true) ->
                         List.for_all2
                           (fun k v ->
                             match field k with Some x -> same x v | None -> false)
                           [ "area"; "width"; "height" ]
                           [ a; w; h ]
                     | None, Some (Json.Bool false) -> true
                     | _ -> false))
               e.e_results)
    | _ -> Some false
  in
  check = Some true

(* Tally one phase's responses.  Bodies differ only in "seq" (the first
   field), so each distinct remainder is checked once. *)
let tally_phase ~phase ~cached ~expected ~status ~body =
  let t = tally phase in
  let memo = Hashtbl.create 64 in
  Array.iteri
    (fun i st ->
      t.sent <- t.sent + 1;
      if st = 200 then begin
        let b = body.(i) in
        let rest =
          match String.index_opt b ',' with
          | Some k -> String.sub b k (String.length b - k)
          | None -> b
        in
        let r : expect = expected i in
        let key = (r.e_name, rest) in
        let good =
          match Hashtbl.find_opt memo key with
          | Some g -> g
          | None ->
              let g = serve_body_ok ~cached r b in
              Hashtbl.add memo key g;
              g
        in
        if good then t.ok <- t.ok + 1 else t.wrong <- t.wrong + 1
      end
      else if st = 503 then t.shed <- t.shed + 1
      else t.failed <- t.failed + 1)
    status;
  t

(* Latencies with every non-ok answer as a miss. *)
let latencies_with_misses (res : Client.result) =
  Array.mapi
    (fun i l -> if res.status.(i) = 200 then l else Float.infinity)
    res.latency

(* ========================= batch-mixed ========================= *)

let batch_modules = 120

(* The CLI's implicit method set (its classic report). *)
let cli_methods = [ "stdcell"; "fullcustom-exact"; "fullcustom-average"; "gatearray" ]

let batch_inputs () =
  let items = Workload.batch_mixed ~seed:!seed ~modules:batch_modules in
  let file = path "batch.hdl" in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun (i : Workload.item) -> output_string oc i.hdl) items);
  let smallest =
    List.fold_left
      (fun (a : Workload.item) (b : Workload.item) -> if b.devices < a.devices then b else a)
      (List.hd items) items
  in
  let one = path "one.hdl" in
  Out_channel.with_open_bin one (fun oc -> output_string oc smallest.hdl);
  let circuits =
    match Mae.Driver.file_circuits file with
    | Ok cs -> cs
    | Error e -> die "batch file: %s" (Format.asprintf "%a" Mae.Driver.pp_error e)
  in
  let reports = reference ~methods:cli_methods circuits in
  let records =
    List.map
      (fun r ->
        match Record.of_report r with
        | Ok rc -> rc
        | Error e -> die "reference record: %s" (Record.of_report_error_to_string e))
      reports
  in
  (file, one, circuits, records, List.map expect_of reports)

(* [mae estimate] on one file: (wall s, peak RSS MiB, tally). *)
let cli_run ~phase ?(extra = []) ~records file =
  let db = path "out.db" in
  if Sys.file_exists db then Sys.remove db;
  let wall, info =
    Proc.run ~stdout:(path "estimate.out") ~stderr:(path "estimate.err") !mae
      ([ "estimate"; "--jobs"; "1"; "--db"; db ] @ extra @ [ file ])
  in
  let t = tally phase in
  t.sent <- List.length records;
  (if info.code <> 0 then t.failed <- t.sent
   else
     match Mae_db.Store.load ~path:db with
     | Error _ -> t.failed <- t.sent
     | Ok store ->
         List.iter
           (fun (r : Record.t) ->
             match Mae_db.Store.find store r.module_name with
             | None -> t.failed <- t.failed + 1
             | Some got ->
                 if same_record got r then t.ok <- t.ok + 1
                 else t.wrong <- t.wrong + 1)
           records);
  (wall, info.peak_rss_mib, t)

(* Repeat [f] until [budget] seconds have passed (at least [min] times). *)
let repeat ?(min = 3) budget f =
  let t0 = now () in
  let rec go acc k =
    if k >= min && now () -. t0 >= budget then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

let setup_reps = 15

let merge_tallies phase ts =
  let t = tally phase in
  List.iter
    (fun x ->
      t.sent <- t.sent + x.sent;
      t.ok <- t.ok + x.ok;
      t.failed <- t.failed + x.failed;
      t.shed <- t.shed + x.shed;
      t.wrong <- t.wrong + x.wrong)
    ts;
  t

let batch_setup one =
  let runs =
    List.init setup_reps (fun _ ->
        Proc.run ~stdout:(path "one.out") ~stderr:(path "one.err") !mae
          [ "estimate"; "--jobs"; "1"; one ])
  in
  List.iter
    (fun (_, (i : Proc.exit_info)) ->
      if i.code <> 0 then die "mae estimate on a one-module file failed")
    runs;
  Array.of_list (List.map fst runs)

let batch_end_to_end () =
  let file, one, _, records, _ = batch_inputs () in
  let setup = batch_setup one in
  let runs = repeat !seconds (fun () -> cli_run ~phase:"batch" ~records file) in
  let walls = Array.of_list (List.map (fun (w, _, _) -> w) runs) in
  let rss = Array.of_list (List.map (fun (_, r, _) -> r) runs) in
  let tallies = [ merge_tallies "batch" (List.map (fun (_, _, t) -> t) runs) ] in
  let n = Float.of_int batch_modules in
  let rates = Array.map (fun w -> n /. w) walls in
  let tail_pm, tail_v =
    match Stats.tail walls with
    | Some x -> x
    | None -> die "only %d CLI runs; need 20 for a tail" (Array.length walls)
  in
  emit ~tallies
    ~detail:
      [
        ("modules", num n);
        ("cli_runs", num (Float.of_int (Array.length walls)));
        ("setup_runs", num (Float.of_int setup_reps));
        ("p50_s", num (Stats.median walls));
        ("tail_percentile", num (Float.of_int tail_pm /. 10.));
        ("tail_s", num tail_v);
        ( "issue_metrics",
          Json.Object [ ("batch.modules_per_s", num (Stats.median rates)) ] );
      ]
    [
      m "setup_s" "s" (Stats.median setup);
      m "peak_rss_mb" "MiB" (Stats.median rss);
      m "throughput_per_s" "1/s" (Stats.median rates);
    ]

(* --- the in-process replay of one module through the driver's
       stages, in the driver's order --- *)

let replay_module sp ~selected (c : Mae_netlist.Circuit.t) =
  Span_log.with_ sp "driver.module" @@ fun () ->
  let process = Mae_tech.Registry.find_exn registry c.technology in
  let issues =
    Span_log.with_ sp "netlist.validate" (fun () ->
        Mae_netlist.Validate.check c process)
  in
  if List.exists Mae_netlist.Validate.is_error issues then
    die "replay: %s does not validate" c.name;
  let expanded =
    Span_log.with_ sp "celllib.expand" (fun () ->
        Mae.Methodology.expand_for_fullcustom c process)
  in
  let fc_circuit = Option.value expanded ~default:c in
  let stats, fc_stats =
    Span_log.with_ sp "netlist.stats" (fun () ->
        let stats = Mae_netlist.Stats.compute c process in
        ( stats,
          match expanded with
          | None -> stats
          | Some e -> Mae_netlist.Stats.compute e process ))
  in
  let ctx =
    {
      Mae.Methodology.config = None;
      process;
      stats;
      fc_circuit;
      fc_stats;
      rows_override = None;
    }
  in
  let results =
    List.map
      (fun t ->
        {
          Mae.Driver.methodology = t;
          outcome =
            Span_log.with_ sp ("core." ^ Mae.Methodology.name t) (fun () ->
                Mae.Methodology.run ctx t c);
        })
      selected
  in
  { Mae.Driver.circuit = c; process; issues; expanded; results }

let resolve methods =
  match Mae.Methodology.resolve methods with
  | Ok s -> s
  | Error e -> die "methods: %s" e

let gc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* A layer's self time per module or request, as its metric. *)
let self_per name ~per selfs =
  (name ^ "_s", Option.value (List.assoc_opt name selfs) ~default:0. /. per)

let layer_names =
  [
    "hdl.parse"; "netlist.validate"; "celllib.expand"; "netlist.stats";
    "core.stdcell"; "core.fullcustom-exact"; "core.fullcustom-average";
    "core.gatearray"; "db.key"; "db.find"; "db.store"; "serve.decode";
    "serve.encode";
  ]

let batch_traced () =
  let file, _, circuits, records, references = batch_inputs () in
  let budget = !seconds /. 3. in
  let plain = repeat budget (fun () -> cli_run ~phase:"untraced" ~records file) in
  let traced =
    repeat budget (fun () ->
        cli_run ~phase:"traced" ~extra:[ "--trace"; path "cli-trace.json" ] ~records file)
  in
  let n = Float.of_int batch_modules in
  let rate runs = Stats.median (Array.of_list (List.map (fun (w, _, _) -> n /. w) runs)) in
  let per_module_wall =
    Stats.median (Array.of_list (List.map (fun (w, _, _) -> w) plain)) /. n
  in
  (* the replay starts with a cold kernel cache, as the CLI does *)
  let selected = resolve cli_methods in
  Mae_prob.Kernel_cache.clear ();
  let k0 = Mae_prob.Kernel_cache.stats () in
  let sp = Span_log.create () in
  let w0 = gc_words () in
  let circuits' =
    Span_log.with_ sp "hdl.parse" (fun () ->
        match Mae_hdl.Parser.parse_file file with
        | Error _ -> die "replay parse failed"
        | Ok design -> (
            match Mae_hdl.Elaborate.design_to_circuits design with
            | Ok cs -> cs
            | Error _ -> die "replay elaborate failed"))
  in
  List.iteri
    (fun i (c, e) ->
      Span_log.set_rid sp (i + 1);
      if not (matches (replay_module sp ~selected c) e) then
        die "replay of %s differs from the reference" c.Mae_netlist.Circuit.name)
    (List.combine circuits' references);
  let alloc = (gc_words () -. w0) /. n in
  let k1 = Mae_prob.Kernel_cache.stats () in
  let hits = k1.hits - k0.hits and misses = k1.misses - k0.misses in
  (* engine overhead: the engine batch against the bare driver over the
     same modules, both with the kernel cache warm; below the noise it
     can read negative *)
  let timed f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  let driver () =
    List.iter
      (fun c -> ignore (Mae.Driver.run_circuit ~methods:cli_methods ~registry c))
      circuits
  and engine () =
    ignore
      (Mae_engine.run_circuits_with_stats ~jobs:1 ~methods:cli_methods ~registry
         circuits)
  in
  let rounds =
    List.init 6 (fun k ->
        (* alternate which side runs first *)
        let d, e =
          if k mod 2 = 0 then
            let d = timed driver in
            (d, timed engine)
          else
            let e = timed engine in
            (timed driver, e)
        in
        (e -. d) /. n)
  in
  let engine_overhead = Stats.median (Array.of_list rounds) in
  Span_log.write sp (path "replay-spans.jsonl");
  let selfs = Stats.self_by_name (Span_log.spans sp) in
  let layers =
    List.filter_map
      (fun l ->
        if List.mem_assoc l selfs then Some (self_per l ~per:n selfs) else None)
      layer_names
  in
  let parts = engine_overhead :: List.map snd layers in
  let tallies =
    [
      merge_tallies "untraced" (List.map (fun (_, _, t) -> t) plain);
      merge_tallies "traced" (List.map (fun (_, _, t) -> t) traced);
    ]
  in
  emit_per_layer ~tallies
    ~detail:
      [
        ("modules", num n);
        ("replay_spans", num (Float.of_int (List.length (Span_log.spans sp))));
        ("end_to_end_per_module_s", num per_module_wall);
      ]
    (layers
    @ [
        ("engine.overhead_s", engine_overhead);
        ( "prob.kernel_hit_ratio",
          Float.of_int hits /. Float.of_int (max 1 (hits + misses)) );
        ("prob.kernel_entries", Float.of_int k1.entries);
        ("gc.alloc_words_per_module", alloc);
        ("trace.unattributed_frac", Stats.unattributed ~total:per_module_wall parts);
        ("trace.overhead_frac", (rate plain /. rate traced) -. 1.);
        ("failed_frac", failed_frac tallies);
      ])

(* ========================= serve-hot / serve-cold ========================= *)

type serve_spec = {
  dialect : Client.dialect;
  cached : bool;  (** what every timed response must say *)
  ref_rate : float;  (** requests/s of the reference-rate phase *)
  limit_s : float;  (** p99 latency limit of the ladder *)
  ladder_lo : float;  (** lowest rung, requests/s; rungs step 5% *)
  ladder_hi : float;
  sat_requests : int;  (** requests of the saturation phase *)
  sat_windows : int;
      (** slices of the saturation phase; each holds whole cycles of the
          workload's mix, so every slice asks for the same work *)
}

(* saturation keeps this many requests outstanding per connection *)
let sat_depth = 4

let hot =
  {
    dialect = Client.Http;
    cached = true;
    ref_rate = 100.;
    limit_s = 0.100;
    ladder_lo = 50.;
    ladder_hi = 800.;
    (* 14 slices of 12 rounds over the 24 circuits *)
    sat_requests = 4032;
    sat_windows = 14;
  }

let cold =
  {
    dialect = Client.Line;
    cached = false;
    ref_rate = 80.;
    limit_s = 0.200;
    ladder_lo = 25.;
    ladder_hi = 400.;
    (* 4 slices, each one full sweep of the 351 circuit sizes *)
    sat_requests = 1404;
    sat_windows = 4;
  }

(* The generator may run late by at most this share of the limit (at
   p99) before the run's open-loop latencies are withheld as invalid. *)
let late_share = 0.25

(* serve p50 is the median of this many consecutive windows' medians *)
let p50_windows = 6

let ladder spec =
  let rec go r acc =
    if r > spec.ladder_hi *. 1.0001 then Array.of_list (List.rev acc)
    else go (r *. 1.05) (r :: acc)
  in
  go spec.ladder_lo []

(* A source of requests: [take n] returns the next n payloads and their
   request identities; [expected id] is the reference report.
   serve-hot cycles a seeded pick over its set; serve-cold generates a
   fresh circuit per request and computes its reference on demand,
   after the timed phases. *)
type source = {
  take : int -> string array * int array;
  expected : int -> expect;
}

let hot_source dialect =
  let items = Array.of_list (Workload.serve_hot ~seed:!seed) in
  let payloads = Array.map (fun (i : Workload.item) -> Client.payload dialect i.hdl) items in
  let refs =
    Array.map
      (fun (i : Workload.item) ->
        expect_of (List.hd (reference ~methods:[ "default" ] (circuits_of_hdl i.hdl))))
      items
  in
  let picks = Workload.picks ~seed:!seed ~count:200_000 (Array.length items) in
  let cursor = ref 0 in
  let take n =
    let idx = Array.init n (fun k -> picks.((!cursor + k) mod Array.length picks)) in
    cursor := !cursor + n;
    (Array.map (fun i -> payloads.(i)) idx, idx)
  in
  ( items,
    { take; expected = (fun i -> refs.(i)) } )

let cold_source dialect ~base =
  let next = ref base and refs = Hashtbl.create 4096 in
  let take n =
    let idx = Array.init n (fun k -> !next + k) in
    next := !next + n;
    ( Array.map
        (fun i -> Client.payload dialect (Workload.serve_cold ~seed:!seed i).hdl)
        idx,
      idx )
  in
  let expected i =
    match Hashtbl.find_opt refs i with
    | Some r -> r
    | None ->
        let hdl = (Workload.serve_cold ~seed:!seed i).hdl in
        let r = expect_of (List.hd (reference ~methods:[ "default" ] (circuits_of_hdl hdl))) in
        Hashtbl.add refs i r;
        r
  in
  { take; expected }

(* One phase: send [n] requests at [rate]; returns the raw result with
   the request identities for checking later. *)
let phase ?max_backlog ~spec ~conns ~src ~rate ~n () =
  let payloads, idx = src.take n in
  let res =
    Client.run ?max_backlog ~dialect:spec.dialect ~conns ~rate ~drain_s:10. payloads
  in
  if not (Client.complete res) then die "requests went unanswered for 10 s";
  log "phase at %.1f req/s: %d sent, generator late p99 %.5f s" rate res.sent
    (Stats.percentile res.late 990);
  (res, Array.sub idx 0 res.sent)

let daemon_setup_reps = 9

(* Start the daemon [daemon_setup_reps] times (all but the last are
   stopped again); the set-up times and the running daemon. *)
let start_measured ?(args = []) () =
  let rec go k acc =
    let d, s = Proc.start_daemon ~mae:!mae ~stderr:(path "daemon.err") args in
    if k = 1 then (d, Array.of_list (s :: acc))
    else begin
      ignore (Proc.stop_daemon d);
      go (k - 1) (s :: acc)
    end
  in
  go daemon_setup_reps []

let open_conns port = List.init (max 1 (min 2 nproc)) (fun _ -> Client.open_conn port)

(* Requests answered per second of the rung: ok answers over the span
   from the first due instant to the last answer. *)
let achieved (res : Client.result) =
  let last = ref 0. and ok = ref 0 in
  Array.iteri
    (fun i st ->
      if st = 200 then begin
        incr ok;
        last := Float.max !last (res.due.(i) +. res.latency.(i))
      end)
    res.status;
  if !ok = 0 then 0. else Float.of_int !ok /. (!last -. res.due.(0))

let warm_up ~spec ~conns ~src ~(items : Workload.item array option) =
  match items with
  | Some items ->
      (* every hot circuit twice: the misses are paid here *)
      let n = Array.length items in
      let payloads =
        Array.init (2 * n) (fun k -> Client.payload spec.dialect items.(k mod n).hdl)
      in
      let res = Client.run ~dialect:spec.dialect ~conns ~rate:spec.ref_rate ~drain_s:10. payloads in
      if not (Client.complete res) then die "warm-up went unanswered"
  | None ->
      let res, _ = phase ~spec ~conns ~src ~rate:spec.ref_rate ~n:(int_of_float spec.ref_rate) () in
      ignore res

let serve_end_to_end spec =
  let items, src =
    match spec.dialect with
    | Client.Http ->
        let items, src = hot_source spec.dialect in
        (Some items, src)
    | Client.Line -> (None, cold_source spec.dialect ~base:0)
  in
  let daemon, setup = start_measured () in
  let conns = open_conns daemon.port in
  let warm_src = if items = None then cold_source spec.dialect ~base:10_000_000 else src in
  warm_up ~spec ~conns ~src:warm_src ~items;
  (* reference-rate phase: 1008 requests, so p99 has 10 beyond it and
     serve-hot's saturation phase starts on a whole round of its mix *)
  let ref_n = 1008 in
  let ref_res, ref_idx = phase ~spec ~conns ~src ~rate:spec.ref_rate ~n:ref_n () in
  (* saturation: closed loop, [sat_depth] outstanding per connection,
     a fixed request count; the rate is the median over equal windows
     of requests, each timed from its first to its last completion *)
  let sat_payloads, sat_idx = src.take spec.sat_requests in
  let sat = Client.saturate ~dialect:spec.dialect ~conns ~depth:sat_depth sat_payloads in
  let done_sorted = Array.map fst sat in
  Array.sort Float.compare done_sorted;
  let per = spec.sat_requests / spec.sat_windows in
  let sat_rates =
    Array.init spec.sat_windows (fun w ->
        let a = done_sorted.(w * per) and b = done_sorted.(((w + 1) * per) - 1) in
        Float.of_int (per - 1) /. (b -. a))
  in
  log "saturation: %d requests, window rates %s" (Array.length sat)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") sat_rates)));
  (* the memory the daemon reached over the fixed-size phases; the
     ladder below sends a load-dependent number of requests *)
  let peak_rss = Proc.vm_hwm_mib daemon in
  (* the ladder: binary search over fixed 5% rungs *)
  let rungs = ladder spec in
  let rung_s = !seconds /. 20. in
  let measured = ref [] in
  let rec search lo hi =
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      let rate = rungs.(mid) in
      let n = max 20 (int_of_float (rate *. rung_s)) in
      let max_backlog = int_of_float (rate *. spec.limit_s) + 1 in
      let res, idx = phase ~max_backlog ~spec ~conns ~src ~rate ~n () in
      let rung =
        {
          Stats.rate;
          latencies = latencies_with_misses res;
          backlog_end = res.backlog_end;
          achieved = achieved res;
        }
      in
      measured := (rung, res, idx) :: !measured;
      log "rung %7.1f req/s: p99 %.4f s, backlog %d -> %s" rate
        (Stats.rung_p99 rung) res.backlog_end
        (if Stats.rung_passes ~limit:spec.limit_s rung then "pass" else "fail");
      if Stats.rung_passes ~limit:spec.limit_s rung then search mid hi
      else search lo mid
    end
  in
  search (-1) (Array.length rungs);
  List.iter Client.close_conn conns;
  ignore (Proc.stop_daemon daemon);
  let ref_tally =
    tally_phase ~phase:"reference" ~cached:spec.cached
      ~expected:(fun i -> src.expected ref_idx.(i))
      ~status:ref_res.status ~body:ref_res.body
  in
  let rung_tallies =
    List.rev_map
      (fun ((r : Stats.rung), (res : Client.result), idx) ->
        tally_phase
          ~phase:(Printf.sprintf "rung-%.0f" r.rate)
          ~cached:spec.cached
          ~expected:(fun i -> src.expected idx.(i))
          ~status:res.status ~body:res.body)
      !measured
  in
  let sat_tally =
    tally_phase ~phase:"saturation" ~cached:spec.cached
      ~expected:(fun i -> src.expected sat_idx.(i))
      ~status:(Array.map (fun (_, (st, _)) -> st) sat)
      ~body:(Array.map (fun (_, (_, b)) -> b) sat)
  in
  let tallies = ref_tally :: sat_tally :: rung_tallies in
  let lat = latencies_with_misses ref_res in
  let tail_pm, tail_v =
    match Stats.tail lat with Some x -> x | None -> die "no tail percentile"
  in
  let late =
    Array.concat (ref_res.late :: List.map (fun (_, (r : Client.result), _) -> r.late) !measured)
  in
  let late_p99 = Stats.percentile late 990 in
  (* open-loop latencies from a generator that fell behind are not
     reported; the closed-loop and set-up metrics still are *)
  let latency_valid = late_p99 <= late_share *. spec.limit_s in
  let max_rung = Stats.max_rate ~limit:spec.limit_s (List.map (fun (r, _, _) -> r) !measured) in
  let latencies =
    if not latency_valid then
      [
        ( "latency_invalid",
          Json.String
            (Printf.sprintf "generator ran %.4f s late at p99, over %.4f s" late_p99
               (late_share *. spec.limit_s)) );
      ]
    else
      [
        ("serve.p50_s", num (Stats.median_of_windows ~windows:p50_windows lat));
        ("serve.p99_s", num tail_v);
        ( "serve.max_rps",
          match max_rung with
          | Some r -> num r.achieved
          | None -> Json.String "no rung met the limit" );
      ]
  in
  emit ~tallies
    ~detail:
      [
        ("reference_rate", num spec.ref_rate);
        ("reference_requests", num (Float.of_int ref_n));
        ("latency_limit_s", num spec.limit_s);
        ("late_share_limit", num late_share);
        ("tail_percentile", num (Float.of_int tail_pm /. 10.));
        ("p50_windows", num (Float.of_int p50_windows));
        ("saturation_depth", num (Float.of_int sat_depth));
        ("saturation_requests", num (Float.of_int (Array.length sat)));
        ("saturation_windows", num (Float.of_int spec.sat_windows));
        ("gen.late_p99_s", num late_p99);
        ( "issue_metrics",
          Json.Object (("serve.throughput_per_s", num (Stats.median sat_rates)) :: latencies) );
      ]
    [
      m "setup_s" "s" (Stats.median setup);
      m "peak_rss_mb" "MiB" peak_rss;
      m "throughput_per_s" "1/s" (Stats.median sat_rates);
    ]

(* --- serve traced run --- *)

let access_records file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Ok doc when Json.member "event" doc = Some (Json.String "serve.request") ->
             let f k = Option.bind (Json.member k doc) Json.to_number in
             Option.bind (f "seq") (fun seq ->
                 Option.bind (f "latency_s") (fun lat ->
                     Some (int_of_float seq, (lat, Option.value (f "gc_s") ~default:0.))))
         | _ -> None)

(* serve.request span durations by request id, from the Chrome trace *)
let request_spans file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error e -> die "daemon trace: %s" e
  | Ok doc ->
      Option.value ~default:[]
        (Option.bind (Json.member "traceEvents" doc) Json.to_list)
      |> List.filter_map (fun ev ->
             match (Json.member "name" ev, Json.member "args" ev) with
             | Some (Json.String "serve.request"), Some args -> (
                 match
                   ( Option.bind (Json.member "rid" args) Json.to_string,
                     Option.bind (Json.member "dur" ev) Json.to_number )
                 with
                 | Some rid, Some dur -> Some (rid, dur *. 1e-6)
                 | _ -> None)
             | _ -> None)

let metric_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)

let seq_of body =
  match Json.parse body with
  | Ok doc -> Option.map int_of_float (Option.bind (Json.member "seq" doc) Json.to_number)
  | Error _ -> None

let serve_traced spec =
  let items, src =
    match spec.dialect with
    | Client.Http ->
        let items, src = hot_source spec.dialect in
        (Some items, src)
    | Client.Line -> (None, cold_source spec.dialect ~base:0)
  in
  (* 1000 requests per phase, so p99 has 10 samples beyond it *)
  let n = 1000 in
  let run_daemon ~args ~warm_base =
    let daemon, _ = Proc.start_daemon ~mae:!mae ~stderr:(path "daemon.err") args in
    let conns = open_conns daemon.port in
    let warm_src = if items = None then cold_source spec.dialect ~base:warm_base else src in
    warm_up ~spec ~conns ~src:warm_src ~items;
    let res, idx = phase ~spec ~conns ~src ~rate:spec.ref_rate ~n () in
    (daemon, conns, res, idx)
  in
  (* untraced, then traced, same rate and request count *)
  let d0, c0, plain, plain_idx = run_daemon ~args:[] ~warm_base:10_000_000 in
  List.iter Client.close_conn c0;
  ignore (Proc.stop_daemon d0);
  let trace_file = path "daemon-trace.json" and access = path "access.jsonl" in
  let d1, c1, traced, idx =
    run_daemon ~args:[ "--trace"; trace_file; "--access-log"; access ] ~warm_base:20_000_000
  in
  let metrics = Client.get d1.port "/metrics" in
  let runtimez = Client.get d1.port "/runtimez" in
  List.iter Client.close_conn c1;
  ignore (Proc.stop_daemon d1);
  let expected idx i = src.expected idx.(i) in
  let tallies =
    [
      tally_phase ~phase:"untraced" ~cached:spec.cached ~expected:(expected plain_idx)
        ~status:plain.status ~body:plain.body;
      tally_phase ~phase:"traced" ~cached:spec.cached ~expected:(expected idx)
        ~status:traced.status ~body:traced.body;
    ]
  in
  (* daemon-side figures for the traced phase's requests, by seq *)
  let log_by_seq = Hashtbl.of_seq (List.to_seq (access_records access)) in
  let span_by_rid = Hashtbl.of_seq (List.to_seq (request_spans trace_file)) in
  let seqs = Array.map seq_of traced.body in
  let matched f =
    Array.to_list seqs
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) -> Option.bind s (fun s -> f i s))
    |> Array.of_list
  in
  let daemon_lat = matched (fun _ s -> Option.map fst (Hashtbl.find_opt log_by_seq s)) in
  let gc_s = matched (fun _ s -> Option.map snd (Hashtbl.find_opt log_by_seq s)) in
  let wire =
    matched (fun i s ->
        Option.map (fun (l, _) -> traced.latency.(i) -. l) (Hashtbl.find_opt log_by_seq s))
  in
  let queue =
    matched (fun _ s ->
        match (Hashtbl.find_opt log_by_seq s, Hashtbl.find_opt span_by_rid ("r" ^ string_of_int s)) with
        | Some (l, _), Some d -> Some (l -. d)
        | _ -> None)
  in
  if Array.length daemon_lat = 0 then die "no access-log record matched a response";
  (* the in-process replay of the traced phase's requests *)
  let cas = Mae_db.Cas.create () in
  let methods = List.map Mae.Methodology.name (resolve [ "default" ]) in
  let selected = resolve [ "default" ] in
  (match items with
  | Some items ->
      Array.iter
        (fun (it : Workload.item) ->
          List.iter
            (fun (c : Mae_netlist.Circuit.t) ->
              let process = Mae_tech.Registry.find_exn registry c.technology in
              let r = List.hd (reference ~methods:[ "default" ] [ c ]) in
              Mae_db.Cas.store cas ~key:(Mae_db.Cas.key ~methods ~process c) r)
            (circuits_of_hdl it.hdl))
        items
  | None -> ());
  let h0 = Mae_db.Cas.hit_count () and m0 = Mae_db.Cas.miss_count () in
  let sp = Span_log.create () in
  let canonical = ref 0. in
  let w0 = gc_words () in
  let requests = Array.length idx in
  Array.iteri
    (fun i rix ->
      Span_log.set_rid sp (i + 1);
      let r = src.expected rix in
      (* the same wire bytes the daemon received *)
      let payload =
        Client.payload spec.dialect
          (match items with
          | Some items -> items.(rix).Workload.hdl
          | None -> (Workload.serve_cold ~seed:!seed rix).hdl)
      in
      let parsed = ref [] in
      let body_doc =
        match Json.parse traced.body.(i) with Ok d -> d | Error e -> die "response: %s" e
      in
      let framing = ref Mae_serve.Protocol.Line in
      Span_log.with_ sp "serve.request" (fun () ->
          let hdl =
            Span_log.with_ sp "serve.decode" (fun () ->
                match Mae_serve.Protocol.decode ~max_bytes:(8 lsl 20) Mae_serve.Protocol.initial payload with
                | Frame ({ request = Estimate e; framing = f; _ }, _, _) ->
                    framing := f;
                    e.hdl
                | _ -> die "replay: request does not decode")
          in
          let circuits =
            Span_log.with_ sp "hdl.parse" (fun () ->
                match Mae_hdl.Parser.parse_string hdl with
                | Error _ -> die "replay parse failed"
                | Ok d -> (
                    match Mae_hdl.Elaborate.design_to_circuits d with
                    | Ok cs -> cs
                    | Error _ -> die "replay elaborate failed"))
          in
          parsed := circuits;
          List.iter
            (fun (c : Mae_netlist.Circuit.t) ->
              let process = Mae_tech.Registry.find_exn registry c.technology in
              let key = Span_log.with_ sp "db.key" (fun () -> Mae_db.Cas.key ~methods ~process c) in
              let found = Span_log.with_ sp "db.find" (fun () -> Mae_db.Cas.find cas ~key ~circuit:c ~process) in
              let report =
                match found with
                | Some rep -> rep
                | None ->
                    let rep = replay_module sp ~selected c in
                    Span_log.with_ sp "db.store" (fun () -> Mae_db.Cas.store cas ~key rep);
                    rep
              in
              if not (matches report r) then die "replay differs from the reference")
            circuits;
          Span_log.with_ sp "serve.encode" (fun () ->
              ignore (Mae_serve.Protocol.encode !framing (Mae_serve.Protocol.json_response body_doc))));
      (* canonicalization on its own: part of db.key, not added again *)
      List.iter
        (fun c ->
          let t0 = now () in
          ignore (Mae_netlist.Canonical.to_string c);
          canonical := !canonical +. (now () -. t0))
        !parsed)
    idx;
  let per = Float.of_int requests in
  let alloc = (gc_words () -. w0) /. per in
  let hits = Mae_db.Cas.hit_count () - h0 and misses = Mae_db.Cas.miss_count () - m0 in
  Span_log.write sp (path "replay-spans.jsonl");
  let selfs = Stats.self_by_name (Span_log.spans sp) in
  let layers =
    List.filter_map
      (fun l -> if List.mem_assoc l selfs then Some (self_per l ~per selfs) else None)
      layer_names
  in
  let client_lat = traced.latency in
  let mean_wire = Stats.mean wire and mean_queue = Stats.mean queue in
  let total = Stats.mean client_lat in
  let p99 a = Stats.percentile a 990 in
  let batch_mean =
    match (metric_value metrics "mae_serve_batch_requests_sum", metric_value metrics "mae_serve_batch_requests_count") with
    | Some s, Some c when c > 0. -> s /. c
    | _ -> 1.
  in
  let reused =
    match (metric_value metrics "mae_serve_connections_reused_total", metric_value metrics "mae_serve_connections_total") with
    | Some r, Some t when t > 0. -> r /. t
    | _ -> 0.
  in
  let gc_pause_p99 =
    match Json.parse runtimez with
    | Ok doc ->
        Option.value ~default:0.
          (Option.bind (Option.bind (Json.member "pause" doc) (Json.member "p99_s")) Json.to_number)
    | Error _ -> 0.
  in
  emit_per_layer ~tallies
    ~detail:
      [
        ("requests", num per);
        ("access_log_matched", num (Float.of_int (Array.length daemon_lat)));
        ("request_spans_matched", num (Float.of_int (Array.length queue)));
        ("end_to_end_mean_s", num total);
        ("client_p50_untraced_s", num (Stats.median plain.latency));
        ("client_p50_traced_s", num (Stats.median traced.latency));
      ]
    (layers
    @ [
        ("netlist.canonical_s", !canonical /. per);
        ("db.hit_ratio", Float.of_int hits /. Float.of_int (max 1 (hits + misses)));
        ("serve.p50_s", Stats.median_of_windows ~windows:p50_windows plain.latency);
        ("serve.p99_s", Stats.percentile plain.latency 990);
        ("serve.daemon_p50_s", Stats.median daemon_lat);
        ("serve.daemon_p99_s", p99 daemon_lat);
        ("serve.wire_s", mean_wire);
        ("serve.queue_s", if Array.length queue = 0 then 0. else mean_queue);
        ("serve.batch_requests_mean", batch_mean);
        ("serve.conn_reused_ratio", reused);
        ("gc.alloc_words_per_module", alloc);
        ("gc.pause_p99_s", gc_pause_p99);
        ("gc.request_gc_s_p99", p99 gc_s);
        ("gen.late_p99_s", p99 traced.late);
        ( "trace.unattributed_frac",
          Stats.unattributed ~total
            ((if Array.length queue = 0 then 0. else mean_queue) :: mean_wire :: List.map snd layers) );
        ( "trace.overhead_frac",
          (Stats.median_of_windows ~windows:p50_windows traced.latency
          /. Stats.median_of_windows ~windows:p50_windows plain.latency)
          -. 1. );
        ("failed_frac", failed_frac tallies);
      ])

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  if not (Sys.file_exists !mae) then die "mae CLI not found at %s" !mae;
  match (!workload, !trace) with
  | "batch-mixed", 0 -> batch_end_to_end ()
  | "batch-mixed", 1 -> batch_traced ()
  | "serve-hot", 0 -> serve_end_to_end hot
  | "serve-hot", 1 -> serve_traced hot
  | "serve-cold", 0 -> serve_end_to_end cold
  | "serve-cold", 1 -> serve_traced cold
  | w, t -> die "unknown workload %S or trace %d" w t

(* mae: the Module Area Estimator command line.

   Subcommands mirror the Figure 1 pipeline and the evaluation harness:
     mae estimate  -- estimate every module of an HDL or SPICE file
     mae serve     -- resident estimation service with live telemetry
     mae check     -- differential correctness harness over the kernels
     mae layout    -- run the place & route substrate on one module
     mae floorplan -- floor-plan the modules of an estimate database
     mae generate  -- emit a parameterized benchmark circuit as HDL
     mae processes -- list known fabrication processes
     mae table1 / mae table2 -- quick reproduction of the paper's tables *)

open Cmdliner

let registry_of tech_files =
  let registry = Mae_tech.Registry.create () in
  let rec load = function
    | [] -> Ok registry
    | path :: rest -> begin
        match Mae_tech.Registry.load_file registry path with
        | Ok _ -> load rest
        | Error e ->
            Error (Format.asprintf "%s: %a" path Mae_tech.Tech_parser.pp_error e)
      end
  in
  load tech_files

let tech_files_arg =
  Arg.(
    value & opt_all file []
    & info [ "tech" ] ~docv:"FILE"
        ~doc:"Load an additional fabrication process description (.tech).")

let seed_arg =
  Arg.(
    value & opt int 1988
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the layout substrate.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("hdl", `Hdl); ("spice", `Spice) ]) `Hdl
    & info [ "format" ] ~docv:"FMT" ~doc:"Input format: hdl or spice.")

let read_circuits ?flatten_top ~format ~registry:_ path =
  match format with
  | `Hdl -> begin
      match Mae_hdl.Parser.parse_file path with
      | Error e -> Error (Format.asprintf "%s: %a" path Mae_hdl.Parser.pp_error e)
      | Ok design -> begin
          match flatten_top with
          | Some top -> begin
              match Mae_hdl.Elaborate.flatten design ~top with
              | Ok circuit -> Ok [ circuit ]
              | Error e ->
                  Error (Format.asprintf "%a" Mae_hdl.Elaborate.pp_error e)
            end
          | None -> begin
              match Mae_hdl.Elaborate.design_to_circuits design with
              | Ok circuits -> Ok circuits
              | Error e ->
                  Error (Format.asprintf "%a" Mae_hdl.Elaborate.pp_error e)
            end
        end
    end
  | `Spice -> begin
      match Mae_hdl.Spice.parse_file path with
      | Error e -> Error (Format.asprintf "%s: %a" path Mae_hdl.Spice.pp_error e)
      | Ok circuits -> Ok circuits
    end

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("mae: " ^ msg);
      exit 1

(* estimate *)

(* The classic CLI output: stdcell, both full-custom variants, then the
   gate-array line when the process has a site cell.  An explicit
   --methods set replaces it. *)
let cli_default_methods =
  [ "stdcell"; "fullcustom-exact"; "fullcustom-average"; "gatearray" ]

let print_outcome ~explicit name
    (outcome : (Mae.Methodology.outcome, Mae.Methodology.error) result) =
  match outcome with
  | Ok (Mae.Methodology.Stdcell { auto; _ }) ->
      Format.printf "  %a@." Mae.Estimate.pp_stdcell auto
  | Ok (Mae.Methodology.Fullcustom fc) ->
      let variant =
        match name with
        | "fullcustom-exact" -> "exact"
        | "fullcustom-average" -> "average"
        | other -> other
      in
      Format.printf "  %a (%s)@." Mae.Estimate.pp_fullcustom fc variant
  | Ok (Mae.Methodology.Gatearray ga) ->
      Format.printf "  %a@." Mae.Gatearray.pp_estimate ga
  | Ok (Mae.Methodology.Scalar s) ->
      Format.printf "  %s: %.0f L^2 (%.0f x %.0f L)@." name s.area s.width
        s.height
  | Error (Mae.Methodology.Unsupported _) when not explicit ->
      (* the implicit default set adds gatearray opportunistically; a
         process without a site cell is not worth a line of noise *)
      ()
  | Error e ->
      Format.printf "  %s: %a@." name Mae.Methodology.pp_error e

let method_view_entries (report : Mae.Driver.module_report) =
  List.map
    (fun (r : Mae.Driver.method_result) ->
      let name = Mae.Methodology.name r.methodology in
      match r.outcome with
      | Ok outcome ->
          let d = Mae.Methodology.dims outcome in
          let note =
            match outcome with
            | Mae.Methodology.Stdcell { auto; _ } ->
                Printf.sprintf "rows %d, %d feed-throughs"
                  auto.Mae.Estimate.rows auto.feed_throughs
            | Mae.Methodology.Gatearray ga ->
                Printf.sprintf "%d sites" ga.Mae.Gatearray.sites
            | _ -> ""
          in
          {
            Mae_report.Method_view.name;
            kind = Mae.Methodology.kind outcome;
            ok = true;
            area = d.area;
            width = d.width;
            height = d.height;
            aspect = Mae_geom.Aspect.ratio d.aspect;
            note;
          }
      | Error e ->
          {
            Mae_report.Method_view.name;
            kind = "";
            ok = false;
            area = Float.nan;
            width = Float.nan;
            height = Float.nan;
            aspect = Float.nan;
            note = Mae.Methodology.error_to_string e;
          })
    report.results

let print_report ~verbose ~explicit ~compare ~db_requested store
    (report : Mae.Driver.module_report) =
  let circuit = report.circuit in
  Format.printf "== %a ==@." Mae_netlist.Circuit.pp_summary report.circuit;
  List.iter
    (fun issue -> Format.printf "  %a@." Mae_netlist.Validate.pp_issue issue)
    report.issues;
  List.iter
    (fun (r : Mae.Driver.method_result) ->
      print_outcome ~explicit (Mae.Methodology.name r.methodology) r.outcome)
    report.results;
  if compare then
    print_endline
      (Mae_report.Method_view.render_table
         ~module_name:circuit.Mae_netlist.Circuit.name
         (method_view_entries report));
  if verbose then begin
    let process = report.Mae.Driver.process in
    begin
      match Mae.Driver.stdcell report with
      | Some sc ->
          Format.printf "%a@." Mae.Stdcell.pp_ledger
            (Mae.Stdcell.ledger ~rows:sc.Mae.Estimate.rows circuit process)
      | None -> ()
    end;
    if Option.is_some (Mae.Driver.fullcustom_exact report) then begin
      let stats = Mae.Methodology.fullcustom_stats circuit process in
      Format.printf "%a@." Mae.Fullcustom.pp_ledger
        (Mae.Fullcustom.ledger ~stats ~mode:Mae.Config.Exact_areas circuit process)
    end;
    match Mae.Driver.gatearray report with
    | Some ga -> (
        match Mae.Gatearray.ledger ~rows:ga.array_rows circuit process with
        | Ok l -> Format.printf "%a@." Mae.Gatearray.pp_ledger l
        | Error e -> Format.printf "gate-array breakdown unavailable: %s@." e)
    | None -> ()
  end;
  match Mae_db.Record.of_report report with
  | Ok record -> Mae_db.Store.add store record
  | Error e ->
      if db_requested then
        Format.eprintf "mae: %s@." (Mae_db.Record.of_report_error_to_string e)

(* An output path is rejected before any estimation runs (like the
   --jobs validation): a typo'd directory must not cost a full batch. *)
let validate_out_path ~flag = function
  | None -> ()
  | Some path ->
      if Sys.file_exists path && Sys.is_directory path then
        or_die
          (Error
             (Printf.sprintf "%s %s: path is a directory, need a file" flag
                path));
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir) then
        or_die
          (Error
             (Printf.sprintf "%s %s: directory %s does not exist" flag path dir));
      if not (Sys.is_directory dir) then
        or_die
          (Error
             (Printf.sprintf "%s %s: %s is not a directory" flag path dir))

(* Two artifact flags aimed at one file would silently clobber each
   other (whichever is written last wins); reject the collision before
   anything runs. *)
let reject_same_path flags_and_paths =
  let rec go = function
    | [] -> ()
    | (flag_a, Some path_a) :: rest ->
        List.iter
          (fun (flag_b, path_b) ->
            if path_b = Some path_a then
              or_die
                (Error
                   (Printf.sprintf
                      "%s and %s both point at %s; each artifact needs its \
                       own file"
                      flag_a flag_b path_a)))
          rest;
        go rest
    | (_, None) :: rest -> go rest
  in
  go flags_and_paths

(* With several modules in the batch, one --compare-svg file per module:
   the module name is spliced in before the extension. *)
let compare_svg_path base ~multi name =
  if not multi then base
  else
    let dir = Filename.dirname base in
    let file = Filename.basename base in
    let stem = Filename.remove_extension file in
    let ext = Filename.extension file in
    Filename.concat dir (stem ^ "-" ^ name ^ ext)

let run_estimate tech_files format input db_out verbose flatten_top jobs
    batch_stats trace_out metrics_out methods compare compare_svg =
  if jobs < 0 then
    or_die (Error "--jobs must be >= 0 (0 = one domain per core)");
  reject_same_path
    [
      ("--trace", trace_out); ("--metrics-out", metrics_out); ("--db", db_out);
      ("--compare-svg", compare_svg);
    ];
  validate_out_path ~flag:"--trace" trace_out;
  validate_out_path ~flag:"--metrics-out" metrics_out;
  validate_out_path ~flag:"--db" db_out;
  validate_out_path ~flag:"--compare-svg" compare_svg;
  let explicit = Option.is_some methods in
  let methods =
    match methods with
    | None -> cli_default_methods
    | Some set -> or_die (Mae.Methodology.selection_of_string set)
  in
  (* span tracing and latency sampling are paid for only when asked;
     the runtime lens rides along so traces and metrics dumps carry
     GC pauses interleaved with the estimation spans *)
  if Option.is_some trace_out || Option.is_some metrics_out then begin
    Mae_obs.set_enabled true;
    ignore (Mae_obs.Runtime.start ())
  end;
  let registry = or_die (registry_of tech_files) in
  let circuits = or_die (read_circuits ?flatten_top ~format ~registry input) in
  let store = Mae_db.Store.create () in
  (* the engine preserves input order, so jobs > 1 prints the same report
     stream as a sequential run. *)
  let results, stats =
    Mae_engine.run_circuits_with_stats ~jobs ~methods ~registry circuits
  in
  (* drain the GC cursor before any trace/metrics dump below *)
  Mae_obs.Runtime.stop ();
  List.iter
    (function
      | Error e -> Format.eprintf "mae: %a@." Mae_engine.pp_error e
      | Ok report ->
          print_report ~verbose ~explicit ~compare
            ~db_requested:(Option.is_some db_out) store report)
    results;
  begin
    match compare_svg with
    | None -> ()
    | Some base ->
        let ok_reports =
          List.filter_map (function Ok r -> Some r | Error _ -> None) results
        in
        let multi = List.length ok_reports > 1 in
        List.iter
          (fun (report : Mae.Driver.module_report) ->
            let name = report.circuit.Mae_netlist.Circuit.name in
            match
              Mae_report.Method_view.render_svg ~module_name:name
                (method_view_entries report)
            with
            | Error msg -> Format.eprintf "mae: --compare-svg: %s@." msg
            | Ok svg ->
                let path = compare_svg_path base ~multi name in
                or_die (Mae_report.Svg.write ~path svg);
                Format.eprintf "method comparison drawing written to %s@." path)
          ok_reports
  end;
  if batch_stats then Format.eprintf "mae: %a@." Mae_engine.pp_stats stats;
  begin
    match trace_out with
    | None -> ()
    | Some path ->
        or_die (Mae_obs.Trace.write_chrome ~path);
        Format.eprintf
          "trace written to %s (open in chrome://tracing or Perfetto)@." path
  end;
  begin
    match metrics_out with
    | None -> ()
    | Some path ->
        or_die
          (if Filename.check_suffix path ".json" then
             Mae_obs.Metrics.write_json ~path
           else Mae_obs.Metrics.write_prometheus ~path);
        Format.eprintf "metrics written to %s@." path
  end;
  begin
    match db_out with
    | None -> ()
    | Some path ->
        or_die (Mae_db.Store.save store ~path);
        Format.printf "database written to %s@." path
  end;
  (* the successful reports are printed (and saved) either way; a failed
     module must still fail the invocation for scripted callers. *)
  if stats.Mae_engine.failed > 0 then exit 1

let estimate_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let db_out =
    Arg.(
      value & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:"Write the estimate database (floor-planner input) here.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print the per-net and per-degree-class breakdowns.")
  in
  let flatten_top =
    Arg.(
      value & opt (some string) None
      & info [ "flatten" ] ~docv:"TOP"
          ~doc:
            "Flatten the hierarchical design under module $(docv) before \
             estimating (modules may instantiate other modules by name).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Estimate modules on $(docv) parallel domains (0 = one per \
             core).  Output order and contents are identical for every \
             $(docv).")
  in
  let batch_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print batch throughput and per-domain module counts to \
             stderr.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-stage spans while estimating and write a Chrome \
             trace-event JSON here (open in chrome://tracing or Perfetto; \
             one lane per domain, one nested span per pipeline stage per \
             module).  The path is validated before estimation starts.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the telemetry metrics registry (engine counters, \
             queue-wait gauge, and the driver-stage, methodology, queue-wait and GC latency \
             summaries) here after estimating: Prometheus text format, or \
             JSON when $(docv) ends in .json.  The path is validated before \
             estimation starts.")
  in
  let methods =
    Arg.(
      value & opt (some string) None
      & info [ "methods" ] ~docv:"SET"
          ~doc:
            "Comma-separated estimation methodologies to run, by registry \
             name (see mae serve's GET /methods, or pass an unknown name to \
             get the list).  The aliases $(b,default) (stdcell + both \
             full-custom variants) and $(b,all) (every registered \
             methodology, baselines included) expand accordingly.  Without \
             this flag the classic stdcell / full-custom / gate-array \
             report is printed.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "After each module's report, print a side-by-side comparison \
             table of every selected methodology (area, dimensions, aspect, \
             failures).")
  in
  let compare_svg =
    Arg.(
      value & opt (some string) None
      & info [ "compare-svg" ] ~docv:"FILE"
          ~doc:
            "Draw the selected methodologies' footprints side by side to a \
             common scale and write the SVG here (one file per module; with \
             several modules the module name is appended to the file stem).")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate module areas from a schematic file.")
    Term.(
      const run_estimate $ tech_files_arg $ format_arg $ input $ db_out
      $ verbose $ flatten_top $ jobs $ batch_stats $ trace_out $ metrics_out
      $ methods $ compare $ compare_svg)

(* serve *)

let run_serve tech_files listen obs_listen jobs access_log log_level trace_out
    metrics_out store_journal store_out idle_timeout max_connections
    queue_watermark store_cap =
  if jobs <> 1 then
    or_die
      (Error
         (Printf.sprintf
            "--jobs %d: the daemon estimates every request on one domain; \
             only --jobs 1 is accepted"
            jobs));
  if idle_timeout <= 0. then or_die (Error "--idle-timeout must be positive");
  List.iter
    (fun (flag, v) ->
      if v < 1 then or_die (Error (flag ^ " must be >= 1")))
    [
      ("--max-connections", max_connections);
      ("--queue-watermark", queue_watermark);
    ];
  if store_cap < 0 then
    or_die (Error "--store-cap must be >= 0 (0 = unbounded)");
  reject_same_path
    [
      ("--trace", trace_out);
      ("--metrics-out", metrics_out);
      ("--access-log", access_log);
      ("--store", store_journal);
      ("--store-db", store_out);
    ];
  validate_out_path ~flag:"--trace" trace_out;
  validate_out_path ~flag:"--metrics-out" metrics_out;
  validate_out_path ~flag:"--access-log" access_log;
  validate_out_path ~flag:"--store" store_journal;
  validate_out_path ~flag:"--store-db" store_out;
  let registry = or_die (registry_of tech_files) in
  let request_addr = or_die (Mae_serve.parse_addr listen) in
  let obs_addr =
    Option.map (fun s -> or_die (Mae_serve.parse_addr s)) obs_listen
  in
  let threshold =
    match log_level with
    | "off" -> None
    | s -> begin
        match Mae_obs.Log.level_of_string s with
        | Some l -> Some l
        | None ->
            or_die
              (Error
                 (Printf.sprintf
                    "--log-level %s: want debug, info, warn, error or off" s))
      end
  in
  Mae_obs.Log.set_threshold threshold;
  begin
    match access_log with
    | None -> ()
    | Some path -> or_die (Mae_obs.Log.set_sink_file path)
  end;
  let config =
    {
      (Mae_serve.default_config ~registry ~request_addr) with
      Mae_serve.obs_addr;
      trace_out;
      metrics_out;
      store_journal;
      store_out;
      store_live_cap = (if store_cap = 0 then None else Some store_cap);
      idle_timeout_s = idle_timeout;
      max_connections;
      queue_watermark;
      on_ready =
        (fun ~request_addr ~obs_addr ->
          Format.eprintf "mae: serving estimation requests on %a@."
            Mae_serve.pp_addr request_addr;
          match obs_addr with
          | Some a ->
              Format.eprintf
                "mae: observability plane on %a (/metrics /healthz /buildinfo \
                 /tracez /runtimez /methods)@."
                Mae_serve.pp_addr a
          | None -> ());
    }
  in
  match Mae_serve.run config with
  | Ok () -> Mae_obs.Log.close ()
  | Error msg ->
      Mae_obs.Log.close ();
      or_die (Error msg)

let serve_cmd =
  let listen =
    Arg.(
      value & opt string "127.0.0.1:7788"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Request-plane address: PORT, HOST:PORT or unix:PATH.  Clients \
             send one JSON object per line ({\"hdl\": \"...\", \"id\": ...}) \
             and receive one JSON response line each.  TCP port 0 lets the \
             kernel pick a free port (printed on stderr).")
  in
  let obs_listen =
    Arg.(
      value & opt (some string) None
      & info [ "obs-listen" ] ~docv:"ADDR"
          ~doc:
            "Observability-plane address (same syntax as --listen): serves \
             GET /metrics, /healthz, /buildinfo, /tracez, \
             /runtimez (per-domain GC statistics) and /methods (the \
             methodology registry) over HTTP/1.0.  /healthz answers 200 \
             with status ok, or draining once shutdown has begun.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Must be 1: the daemon estimates every request on one domain. \
             Kept so existing $(b,--jobs 1) invocations still start.")
  in
  let access_log =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append structured JSON access-log records here (default: \
             stderr).  One serve.request record per request.")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"debug, info, warn, error or off (default info).")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Enable span tracing (bounded recent window) and write a Chrome \
             trace here on shutdown.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a final metrics dump here on shutdown (Prometheus text, \
             or JSON when $(docv) ends in .json).")
  in
  let store_journal =
    Arg.(
      value & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Back the content-addressed estimate store with an append-only \
             journal at $(docv): replayed at startup (a restarted daemon \
             answers repeats warm, bit-for-bit) and appended on every new \
             estimate.")
  in
  let store_out =
    Arg.(
      value & opt (some string) None
      & info [ "store-db" ] ~docv:"FILE"
          ~doc:
            "Write a mae_db Store snapshot of the estimate store to $(docv) \
             on shutdown (loadable by the floor-planner).")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close keep-alive connections idle longer than $(docv) with no \
             response in flight (default 300).")
  in
  let max_connections =
    Arg.(
      value & opt int 1024
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Open-connection cap across both planes (default 1024); beyond \
             it new connections are accepted and immediately closed.")
  in
  let queue_watermark =
    Arg.(
      value & opt int 256
      & info [ "queue-watermark" ] ~docv:"N"
          ~doc:
            "Admission control: with $(docv) estimate requests already \
             queued, new ones are shed with ok:false / HTTP 503 + \
             Retry-After instead of estimated (default 256).  Shed requests \
             count into mae_serve_requests_shed_total.")
  in
  let store_cap =
    Arg.(
      value & opt int 65536
      & info [ "store-cap" ] ~docv:"N"
          ~doc:
            "LRU bound on the estimate store's entries, journal replay \
             included, and on the text index's (default 65536; 0 = \
             unbounded).  Evictions count into \
             mae_estimate_cache_evictions_total and \
             mae_serve_text_index_evictions_total.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident estimation service with live telemetry \
          (/metrics, /healthz, /tracez, structured access logs; \
          SIGTERM drains and flushes).")
    Term.(
      const run_serve $ tech_files_arg $ listen $ obs_listen $ jobs
      $ access_log $ log_level $ trace_out $ metrics_out $ store_journal
      $ store_out $ idle_timeout $ max_connections $ queue_watermark
      $ store_cap)

(* check *)

let run_check trials cases seed max_rows max_degree max_nets report_out
    metrics_out verbose =
  reject_same_path [ ("--report", report_out); ("--metrics-out", metrics_out) ];
  validate_out_path ~flag:"--report" report_out;
  validate_out_path ~flag:"--metrics-out" metrics_out;
  let config =
    {
      Mae_check.Harness.default with
      trials;
      cases;
      seed;
      max_rows;
      max_degree;
      max_nets;
    }
  in
  let log = if verbose then prerr_endline else fun (_ : string) -> () in
  let report =
    try Mae_check.Harness.run ~log config
    with Invalid_argument msg -> or_die (Error msg)
  in
  let kernels = Mae_check.Harness.run_kernels () in
  Format.printf "%a@.%a@." Mae_check.Harness.pp_report report
    Mae_check.Harness.pp_kernels kernels;
  begin
    match report_out with
    | None -> ()
    | Some path ->
        or_die
          (Mae_obs.Atomic_file.write_with ~path (fun oc ->
               output_string oc
                 (Mae_obs.Json.encode
                    (Mae_check.Harness.report_json config report ~kernels));
               output_char oc '\n'));
        Format.eprintf "check report written to %s@." path
  end;
  begin
    match metrics_out with
    | None -> ()
    | Some path ->
        or_die
          (if Filename.check_suffix path ".json" then
             Mae_obs.Metrics.write_json ~path
           else Mae_obs.Metrics.write_prometheus ~path);
        Format.eprintf "metrics written to %s@." path
  end;
  if
    not
      (report.Mae_check.Harness.passed
      && List.for_all (fun (k : Mae_check.Harness.cross_result) -> k.ok) kernels)
  then exit 1

let check_cmd =
  let trials =
    Arg.(
      value & opt int Mae_check.Harness.default.trials
      & info [ "trials" ] ~docv:"N"
          ~doc:"Monte-Carlo trials per sweep case (default 200000).")
  in
  let cases =
    Arg.(
      value & opt int Mae_check.Harness.default.cases
      & info [ "cases" ] ~docv:"N"
          ~doc:"Randomized (n, D, H) sweep cases (default 64).")
  in
  let seed =
    Arg.(
      value & opt int Mae_check.Harness.default.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the case generator and of every per-case Monte-Carlo \
             stream (runs are bit-for-bit reproducible).")
  in
  let max_rows =
    Arg.(
      value & opt int Mae_check.Harness.default.max_rows
      & info [ "max-rows" ] ~docv:"N"
          ~doc:
            "Largest row count n to sweep; the exact enumerator walks all \
             n^D placements, so keep n^D modest (default 8).")
  in
  let max_degree =
    Arg.(
      value & opt int Mae_check.Harness.default.max_degree
      & info [ "max-degree" ] ~docv:"D"
          ~doc:"Largest net degree D to sweep (default 5).")
  in
  let max_nets =
    Arg.(
      value & opt int Mae_check.Harness.default.max_nets
      & info [ "max-nets" ] ~docv:"H"
          ~doc:"Largest module net count H to sweep (default 64).")
  in
  let report_out =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable JSON report (per-family comparison \
             counts and max deltas, shrunk reproducers for every failure, \
             golden-row and cross-method sanity results) here.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the telemetry metrics registry (mae_check_* counters) \
             here after the sweep: Prometheus text, or JSON when $(docv) \
             ends in .json.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Stream per-case progress and failures to stderr as they happen.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Cross-validate the closed-form probability kernels against \
          Monte-Carlo simulation and exact enumeration (three independent \
          oracles), pin the served E(i) and E(M) over whole key grids, and \
          exit non-zero on any disagreement.")
    Term.(
      const run_check $ trials $ cases $ seed $ max_rows $ max_degree
      $ max_nets $ report_out $ metrics_out $ verbose)

(* layout *)

let run_layout tech_files format input module_name methodology rows seed svg_out =
  let registry = or_die (registry_of tech_files) in
  let circuits = or_die (read_circuits ~format ~registry input) in
  let circuit =
    match module_name with
    | None -> begin
        match circuits with
        | [ c ] -> c
        | _ -> or_die (Error "several modules in file; pass --module NAME")
      end
    | Some name -> begin
        match
          List.find_opt
            (fun (c : Mae_netlist.Circuit.t) -> String.equal c.name name)
            circuits
        with
        | Some c -> c
        | None -> or_die (Error ("module " ^ name ^ " not found"))
      end
  in
  let process =
    match Mae_tech.Registry.find registry circuit.technology with
    | Some p -> p
    | None -> or_die (Error ("unknown process " ^ circuit.technology))
  in
  let rng = Mae_prob.Rng.create ~seed in
  let layout =
    match methodology with
    | `Standard_cell ->
        let rows =
          match rows with
          | Some r -> r
          | None -> Mae.Row_select.initial_rows circuit process
        in
        Mae_layout.Sc_flow.run ~rng ~rows circuit process
    | `Full_custom ->
        Mae_layout.Fc_flow.run ?row_candidates:(Option.map (fun r -> [ r ]) rows)
          ~rng circuit process
  in
  Format.printf
    "%s: %d rows, %d tracks, %d feed-throughs, %.0f x %.0f L = %.0f L^2, \
     aspect %a, wirelength %.0f L@."
    circuit.name layout.Mae_layout.Row_layout.rows layout.total_tracks
    layout.feed_through_count layout.width layout.height layout.area
    Mae_geom.Aspect.pp layout.aspect layout.hpwl;
  match svg_out with
  | None -> ()
  | Some path ->
      let geometry, wiring =
        match methodology with
        | `Standard_cell ->
            ( Mae_layout.Sc_flow.geometry circuit process layout,
              Some (Mae_layout.Sc_flow.wiring circuit process layout) )
        | `Full_custom ->
            (Mae_layout.Fc_flow.geometry circuit process layout, None)
      in
      or_die
        (Mae_report.Svg.write ~path
           (Mae_layout.Render.svg_of_geometry ?wiring geometry));
      begin
        match wiring with
        | Some w ->
            let report = Mae_layout.Extract.lvs w circuit in
            Format.printf "extraction: %a%s@." Mae_layout.Extract.pp_report
              report
              (if Mae_layout.Extract.clean report then " (clean)" else "")
        | None -> ()
      end;
      Format.printf "layout drawing written to %s@." path

let layout_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let module_name =
    Arg.(
      value & opt (some string) None
      & info [ "module" ] ~docv:"NAME" ~doc:"Module to lay out.")
  in
  let methodology =
    Arg.(
      value
      & opt (enum [ ("sc", `Standard_cell); ("fc", `Full_custom) ]) `Standard_cell
      & info [ "methodology" ] ~docv:"M" ~doc:"sc (standard-cell) or fc.")
  in
  let rows =
    Arg.(
      value & opt (some int) None
      & info [ "rows" ] ~docv:"N" ~doc:"Row count (default: automatic).")
  in
  let svg_out =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Also write an SVG drawing here.")
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Place and route one module (the comparator flows).")
    Term.(
      const run_layout $ tech_files_arg $ format_arg $ input $ module_name
      $ methodology $ rows $ seed_arg $ svg_out)

(* floorplan *)

let run_floorplan db_path allowance seed svg_out =
  let store = or_die (Mae_db.Store.load ~path:db_path) in
  match
    Mae_floorplan.Chip.plan ~routing_allowance:allowance
      ~rng:(Mae_prob.Rng.create ~seed) store
  with
  | Error e -> or_die (Error e)
  | Ok plan ->
      Format.printf "%a@." Mae_floorplan.Chip.pp_plan plan;
      begin
        match svg_out with
        | None -> ()
        | Some path ->
            or_die
              (Mae_report.Svg.write ~path
                 (Mae_floorplan.Render.svg_of_plan plan));
            Format.printf "floor plan drawing written to %s@." path
      end

let floorplan_cmd =
  let db_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DB") in
  let allowance =
    Arg.(
      value & opt float 0.10
      & info [ "allowance" ] ~docv:"FRAC"
          ~doc:"Inter-module routing allowance (linear fraction).")
  in
  let svg_out =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Also write an SVG drawing here.")
  in
  Cmd.v
    (Cmd.info "floorplan"
       ~doc:"Floor-plan the modules of an estimate database (Figure 1 output).")
    Term.(const run_floorplan $ db_path $ allowance $ seed_arg $ svg_out)

(* generate *)

(* Each generator's --size range, checked before the generator runs so
   that a bad size is a one-line error, not an uncaught Invalid_argument. *)
let generate_size_range = function
  | `Counter | `Alu | `Adder | `Shift | `Random -> (1, max_int)
  | `Decoder -> (1, 4)
  | `Parity -> (2, max_int)

let generate_kinds =
  [ ("counter", `Counter); ("alu", `Alu); ("adder", `Adder);
    ("decoder", `Decoder); ("parity", `Parity); ("shift", `Shift);
    ("random", `Random) ]

let run_generate (name, kind) size technology =
  let lo, hi = generate_size_range kind in
  if size < lo || size > hi then begin
    or_die
      (Error
         (if hi = max_int then
            Printf.sprintf "generate %s: --size %d, must be at least %d" name size lo
          else
            Printf.sprintf "generate %s: --size %d, must be in %d..%d" name size lo hi))
  end;
  let circuit =
    match kind with
    | `Counter -> Mae_workload.Generators.counter ~technology size
    | `Alu -> Mae_workload.Generators.alu ~technology size
    | `Adder -> Mae_workload.Generators.ripple_adder ~technology size
    | `Decoder -> Mae_workload.Generators.decoder ~technology size
    | `Parity -> Mae_workload.Generators.parity ~technology size
    | `Shift -> Mae_workload.Generators.shift_register ~technology size
    | `Random ->
        (* fewer devices than the default output count: every device
           output is a port *)
        let p = Mae_workload.Random_circuit.default_params in
        Mae_workload.Random_circuit.generate
          ~rng:(Mae_prob.Rng.create ~seed:size)
          { p with
            devices = size;
            primary_outputs = min p.primary_outputs size;
            technology }
  in
  print_string (Mae_hdl.Printer.to_string circuit)

let generate_cmd =
  let kind =
    Arg.(
      required
      & pos 0
          (some (enum (List.map (fun ((name, _) as k) -> (name, k)) generate_kinds)))
          None
      & info [] ~docv:"KIND")
  in
  let size =
    Arg.(
      value & opt int 8
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Bits/stages/devices: at least 1 (parity: 2); decoder select \
             bits 1..4.")
  in
  let technology =
    Arg.(
      value & opt string "nmos25"
      & info [ "technology" ] ~docv:"T" ~doc:"Target process name.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a parameterized benchmark circuit as HDL.")
    Term.(const run_generate $ kind $ size $ technology)

(* processes *)

let run_processes tech_files =
  let registry = or_die (registry_of tech_files) in
  List.iter
    (fun name ->
      let p = Mae_tech.Registry.find_exn registry name in
      Format.printf "%a@." Mae_tech.Process.pp p)
    (Mae_tech.Registry.names registry)

let processes_cmd =
  Cmd.v
    (Cmd.info "processes" ~doc:"List known fabrication processes.")
    Term.(const run_processes $ tech_files_arg)

(* table1 / table2: quick reproductions (the full harness is bench/main.exe) *)

let run_table1 seed =
  let process = Mae_tech.Builtin.nmos25 in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      let exact, average = Mae.Fullcustom.estimate_both e.circuit process in
      let real =
        Mae_layout.Fc_flow.run ~rng:(Mae_prob.Rng.create ~seed) e.circuit process
      in
      Format.printf
        "%-10s est(exact) %7.0f  est(avg) %7.0f  real %7.0f  err %s@." e.name
        exact.Mae.Estimate.area average.Mae.Estimate.area
        real.Mae_layout.Row_layout.area
        (Mae_report.Err.percent_string ~estimated:exact.Mae.Estimate.area
           ~real:real.Mae_layout.Row_layout.area))
    (Mae_workload.Bench_circuits.table1 ())

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Quick Table 1 reproduction (full-custom).")
    Term.(const run_table1 $ seed_arg)

let run_table2 seed =
  let process = Mae_tech.Builtin.nmos25 in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      List.iter
        (fun rows ->
          let est = Mae.Stdcell.estimate ~rows e.circuit process in
          let real =
            Mae_layout.Sc_flow.run ~rng:(Mae_prob.Rng.create ~seed) ~rows
              e.circuit process
          in
          Format.printf "%-10s rows %d  est %8.0f  real %8.0f  err %s@." e.name
            rows est.Mae.Estimate.area real.Mae_layout.Row_layout.area
            (Mae_report.Err.percent_string ~estimated:est.Mae.Estimate.area
               ~real:real.Mae_layout.Row_layout.area))
        [ 2; 3; 4 ])
    (Mae_workload.Bench_circuits.table2 ())

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Quick Table 2 reproduction (standard-cell).")
    Term.(const run_table2 $ seed_arg)

let main_cmd =
  let doc = "pre-layout VLSI module area estimation (Chen & Bushnell, DAC'88)" in
  Cmd.group
    (Cmd.info "mae" ~version:"1.0.0" ~doc)
    [
      estimate_cmd; serve_cmd; check_cmd; layout_cmd; floorplan_cmd;
      generate_cmd; processes_cmd; table1_cmd; table2_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

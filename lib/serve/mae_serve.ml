(* Mae_serve: the resident estimation service.

   Three layers, one single-threaded select loop:

   - {!Transport}: listeners, accept, buffered non-blocking reads,
     the write-everything loop, idle reaping, the max-connection cap;
   - {!Protocol}: the pure codec.  Line-delimited JSON and HTTP
     (1.1 keep-alive with Content-Length framing, 1.0 close-by-default
     fallback) both decode to one typed request;
   - {!Dispatch}: the bounded FIFO submission queue in front of the
     engine.  Each estimate request is one engine run; at the queue
     watermark admission control answers 503 + Retry-After without
     estimating.

   This module is the wiring: configuration, the SLO/capture/store
   setup, the observability documents (/metrics, /healthz, /slo,
   /statusz, /buildinfo, /tracez, /methods, /runtimez -- answered on
   either plane, over the same transport), startup and drain.

   Estimation is CPU work measured in milliseconds per module, so the
   loop runs requests inline: while a request estimates, the scrape
   plane waits -- the trade a sidecar-free stdlib+unix server makes.
   Every request estimates on the loop's own domain: a per-request
   spawn and join would add 0.1-0.3 ms per domain to every request,
   and no workload runs the daemon with more than one, so the daemon
   never fans out (the runtime lens's sampler is its only other
   domain).

   SIGINT/SIGTERM flip one atomic flag; the loop then stops accepting,
   answers every request already received (the drain), emits a final
   [serve.shutdown] log record and flushes the configured
   metrics/trace dumps before returning. *)

module Json = Mae_obs.Json
module Log = Mae_obs.Log
module Metrics = Mae_obs.Metrics

(* Make the baseline methodologies selectable in requests: their
   registration runs when Mae_baselines.Methods initializes, which this
   reference forces (Mae_engine does the same; twice is harmless). *)
let () = Mae_baselines.Methods.ensure_registered ()

type addr = Transport.addr =
  | Tcp of { host : string; port : int }
  | Unix_sock of string

let pp_addr = Transport.pp_addr
let parse_addr = Transport.parse_addr

type slo_config = {
  latency_threshold_s : float;  (** a request is "good" iff at or under *)
  latency_target : float;  (** required good fraction for latency *)
  error_target : float;  (** required non-server-error fraction *)
  fast_window_s : float;
  slow_window_s : float;
  min_events : int;  (** fast-window events before /healthz may degrade *)
}

let default_slo =
  {
    latency_threshold_s = 0.25;
    latency_target = 0.99;
    error_target = 0.999;
    fast_window_s = 300.;
    slow_window_s = 3600.;
    min_events = 20;
  }

type config = {
  request_addr : addr;
  obs_addr : addr option;
  registry : Mae_tech.Registry.t;
  trace_out : string option;  (** Chrome trace flushed at shutdown *)
  metrics_out : string option;  (** metrics dump flushed at shutdown *)
  slo : slo_config;
  inject_sleep_field : bool;
      (** honour a "sleep_s" request field by sleeping before
          estimation -- an overload injector for the serve smoke gate;
          never enable in production *)
  store_journal : string option;
      (** append-only journal backing the estimate store: replayed at
          startup (a restarted daemon answers warm) and appended on
          every store insert *)
  store_out : string option;
      (** {!Mae_db.Store}-format snapshot of the estimate store written
          at shutdown (the floor-planner feed) *)
  store_live_cap : int option;
      (** LRU bound on the store's entries; [None] is unbounded *)
  idle_timeout_s : float;
      (** keep-alive connections idle this long are reaped *)
  max_connections : int;
      (** accept cap across both planes; over it, accept-then-close *)
  queue_watermark : int;
      (** queued estimates at/over this are shed (503 + Retry-After) *)
  on_ready : request_addr:addr -> obs_addr:addr option -> unit;
}

let default_config ~registry ~request_addr =
  {
    request_addr;
    obs_addr = None;
    registry;
    trace_out = None;
    metrics_out = None;
    slo = default_slo;
    inject_sleep_field = false;
    store_journal = None;
    store_out = None;
    store_live_cap = Some 65536;
    idle_timeout_s = 300.;
    max_connections = 1024;
    queue_watermark = 256;
    on_ready = (fun ~request_addr:_ ~obs_addr:_ -> ());
  }

(* The largest request frame the codec buffers (a line, or an HTTP
   head plus body). *)
let max_line_bytes = 8 * 1024 * 1024

(* The recent-span window backing /tracez and the final trace dump. *)
let span_retention = 4096

let scrapes_total =
  Metrics.counter "mae_serve_scrapes_total"
    ~help:"Observability-plane HTTP requests answered"

let counter_value name =
  match Metrics.find_counter name with
  | Some c -> Metrics.counter_value c
  | None -> 0

type state = {
  config : config;
  started : float;  (** wall clock, for display (buildinfo started_ts) *)
  started_mono : float;  (** monotonic, for uptime arithmetic *)
  transport : Transport.t;
  dispatch : Dispatch.t;
  mutable draining : bool;
}

let uptime_s st = Mae_obs.Clock.monotonic () -. st.started_mono

(* --- the observability documents --- *)

let healthz_body st ~slo_healthy =
  let num n = Json.Number (Float.of_int n) in
  let status =
    if st.draining then "draining"
    else if not slo_healthy then "degraded"
    else "ok"
  in
  Json.encode
    (Json.Object
       [
         ("status", Json.String status);
         ("slo_healthy", Json.Bool slo_healthy);
         ("uptime_s", Json.Number (uptime_s st));
         ("pid", num (Unix.getpid ()));
         ("recommended_domains", num (Mae_engine.default_jobs ()));
         ("telemetry", Json.Bool (Mae_obs.enabled ()));
         ( "log_threshold",
           match Log.current_threshold () with
           | None -> Json.Null
           | Some l -> Json.String (Log.level_name l) );
         ("requests_total", num (Metrics.counter_value Dispatch.requests_total));
         ("requests_ok", num (Metrics.counter_value Dispatch.requests_ok));
         ( "requests_failed",
           num (Metrics.counter_value Dispatch.requests_failed) );
         ("open_connections", num (Transport.open_request_conns st.transport));
         ( "engine",
           Json.Object
             [
               ("modules_total", num (counter_value "mae_engine_modules_total"));
               ("modules_ok", num (counter_value "mae_engine_modules_ok_total"));
               ( "modules_failed",
                 num (counter_value "mae_engine_modules_failed_total") );
             ] );
       ])
  ^ "\n"

let buildinfo_body st =
  Json.encode
    (Json.Object
       [
         ("name", Json.String "mae");
         ("version", Json.String "1.0.0");
         ( "paper",
           Json.String
             "Chen & Bushnell, A Module Area Estimator for VLSI Layout, DAC'88"
         );
         ("ocaml", Json.String Sys.ocaml_version);
         ("word_size", Json.Number (Float.of_int Sys.word_size));
         ("os_type", Json.String Sys.os_type);
         ("pid", Json.Number (Float.of_int (Unix.getpid ())));
         ("started_ts", Json.Number st.started);
       ])
  ^ "\n"

let methods_body () =
  Json.encode
    (Json.Object
       [
         ( "default",
           Json.Array
             (List.map
                (fun n -> Json.String n)
                Mae.Methodology.default_names) );
         ( "methods",
           Json.Array
             (List.map
                (fun t ->
                  Json.Object
                    [
                      ("name", Json.String (Mae.Methodology.name t));
                      ("doc", Json.String (Mae.Methodology.doc t));
                    ])
                (Mae.Methodology.all ())) );
       ])
  ^ "\n"

let span_json (e : Mae_obs.Span.event) =
  Json.Object
    [
      ("name", Json.String e.name);
      ("domain", Json.Number (Float.of_int e.domain));
      ("depth", Json.Number (Float.of_int e.depth));
      (* span timestamps are monotonic; report an approximate epoch
         time for readers and keep the raw monotonic instant for
         ordering against other spans *)
      ("ts", Json.Number (Mae_obs.Clock.wall_of_monotonic e.ts));
      ("ts_mono", Json.Number e.ts);
      ("dur_s", Json.Number e.dur);
      ("self_s", Json.Number e.self);
    ]

let capture_json (c : Mae_obs.Capture.capture) =
  Json.Object
    ([
       ("rid", Json.String c.cap_rid);
       ( "kind",
         Json.String
           (match c.cap_kind with `Errored -> "errored" | `Slow -> "slow") );
       ("ts", Json.Number c.cap_wall);
       ("latency_s", Json.Number c.cap_latency);
       ("gc_s", Json.Number c.cap_gc_s);
     ]
    @ (match c.cap_error with
      | None -> []
      | Some e -> [ ("error", Json.String e) ])
    @ [ ("spans", Json.Array (List.map span_json c.cap_spans)) ])

let tracez_body () =
  let events = Mae_obs.Span.events () in
  let recent =
    let by_ts_desc =
      List.sort
        (fun (a : Mae_obs.Span.event) (b : Mae_obs.Span.event) ->
          Float.compare b.ts a.ts)
        events
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    List.rev (take 100 by_ts_desc)
  in
  let flame_json (r : Mae_obs.Trace.flame_row) =
    Json.Object
      [
        ("span", Json.String r.span_name);
        ("calls", Json.Number (Float.of_int r.calls));
        ("total_s", Json.Number r.total_s);
        ("self_s", Json.Number r.self_s);
      ]
  in
  Json.encode
    (Json.Object
       [
         ("telemetry", Json.Bool (Mae_obs.enabled ()));
         ( "retention",
           Json.Number (Float.of_int span_retention) );
         (* tail-based capture: the span trees of errored and
            slowest-k requests, the ones worth keeping; request ids
            here match the exemplar labels in /metrics *)
         ( "captures",
           Json.Array (List.map capture_json (Mae_obs.Capture.captures ())) );
         ( "capture_resident_spans",
           Json.Number (Float.of_int (Mae_obs.Capture.resident_spans ())) );
         ( "capture_max_resident_spans",
           Json.Number (Float.of_int (Mae_obs.Capture.max_resident_spans ()))
         );
         ("recent_spans", Json.Array (List.map span_json recent));
         ("flame", Json.Array (List.map flame_json (Mae_obs.Trace.flame ())));
       ])
  ^ "\n"

let slo_body () = Json.encode (Mae_obs.Slo.to_json ()) ^ "\n"

(* /runtimez: the runtime lens document -- sampler state, per-domain
   GC statistics, process telemetry.  Served even when the lens is
   off (the document says so and still carries the process section). *)
let runtimez_body () = Json.encode (Mae_obs.Runtime.to_json ()) ^ "\n"

(* /statusz: the one-page human summary -- uptime, traffic, cache,
   objectives, latency quantiles, captured tails. *)
let statusz_body st =
  let b = Buffer.create 1024 in
  let reqs = Metrics.counter_value Dispatch.requests_total in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "mae serve status";
  line "";
  line "uptime_s: %.1f  pid: %d  telemetry: %s  draining: %b"
    (uptime_s st) (Unix.getpid ())
    (if Mae_obs.enabled () then "on" else "off")
    st.draining;
  line "requests: %d total, %d ok, %d failed (%d shed); open connections: %d"
    reqs
    (Metrics.counter_value Dispatch.requests_ok)
    (Metrics.counter_value Dispatch.requests_failed)
    (Metrics.counter_value Dispatch.requests_shed)
    (Transport.open_request_conns st.transport);
  let hits = counter_value "mae_kernel_cache_hits_total" in
  let misses = counter_value "mae_kernel_cache_misses_total" in
  let lookups = hits + misses in
  line "engine: %d modules (%d ok); kernel cache %d lookups, hit ratio %s"
    (counter_value "mae_engine_modules_total")
    (counter_value "mae_engine_modules_ok_total")
    lookups
    (if lookups = 0 then "n/a"
     else Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int lookups));
  line "";
  List.iter
    (fun (r : Mae_obs.Slo.report) ->
      let kind =
        match r.r_spec.kind with
        | Mae_obs.Slo.Latency th -> Printf.sprintf "latency <= %gms" (th *. 1e3)
        | Mae_obs.Slo.Error_rate -> "error rate"
      in
      line "slo %s [%s, target %g%%]: fast burn %.2f (%d/%d bad), slow burn %.2f -- %s"
        r.r_spec.slo_name kind
        (100. *. r.r_spec.target)
        r.fast.burn_rate r.fast.bad
        (r.fast.good + r.fast.bad)
        r.slow.burn_rate
        (if r.r_healthy then "healthy" else "BUDGET EXHAUSTED"))
    (Mae_obs.Slo.reports ());
  line "";
  let s = Mae_obs.Sketch.snapshot Dispatch.request_latency_sketch in
  if s.n = 0 then line "request latency: no samples yet"
  else begin
    let q p =
      match List.assoc_opt p s.quantiles with
      | Some v -> Printf.sprintf "%.0fus" (v *. 1e6)
      | None -> "-"
    in
    line "request latency: p50 %s  p90 %s  p95 %s  p99 %s  p999 %s (n=%d, eps=%g)"
      (q 0.5) (q 0.9) (q 0.95) (q 0.99) (q 0.999) s.n s.eps
  end;
  let caps = Mae_obs.Capture.captures () in
  let errored =
    List.length (List.filter (fun c -> c.Mae_obs.Capture.cap_kind = `Errored) caps)
  in
  line "captures: %d errored, %d slow (resident spans %d/%d)" errored
    (List.length caps - errored)
    (Mae_obs.Capture.resident_spans ())
    (Mae_obs.Capture.max_resident_spans ());
  if Mae_obs.Runtime.running () then begin
    let q p =
      match Mae_obs.Runtime.pause_quantile p with
      | Some v -> Printf.sprintf "%.0fus" (v *. 1e6)
      | None -> "-"
    in
    line "gc: %d pauses (p50 %s, p99 %s, max %s) across %d domains -- /runtimez"
      (Mae_obs.Runtime.pause_count ())
      (q 0.5) (q 0.99)
      (match Mae_obs.Runtime.max_pause_seconds () with
      | Some v -> Printf.sprintf "%.0fus" (v *. 1e6)
      | None -> "-")
      (List.length (Mae_obs.Runtime.domains ()))
  end;
  Buffer.contents b

let obs_response st path =
  match path with
  | "/metrics" ->
      Protocol.text_response ~content_type:"text/plain; version=0.0.4"
        (Metrics.to_prometheus ())
  | "/healthz" ->
      (* liveness degrades to 503 when the fast-window error budget
         of any objective is exhausted: load balancers shed load
         from an instance that is up but missing its SLOs. *)
      let slo_healthy = Mae_obs.Slo.healthy () in
      let status =
        if (not st.draining) && not slo_healthy then 503 else 200
      in
      Protocol.text_response ~status ~content_type:"application/json"
        (healthz_body st ~slo_healthy)
  | "/slo" ->
      Protocol.text_response ~content_type:"application/json" (slo_body ())
  | "/statusz" -> Protocol.text_response (statusz_body st)
  | "/buildinfo" ->
      Protocol.text_response ~content_type:"application/json"
        (buildinfo_body st)
  | "/tracez" ->
      Protocol.text_response ~content_type:"application/json" (tracez_body ())
  | "/methods" ->
      Protocol.text_response ~content_type:"application/json" (methods_body ())
  | "/runtimez" ->
      Protocol.text_response ~content_type:"application/json"
        (runtimez_body ())
  | _ ->
      Protocol.text_response ~status:404
        "not found; try /metrics /healthz /slo /statusz /buildinfo /tracez \
         /methods /runtimez\n"

(* One decoded frame: scrapes and framing errors answer inline (the
   obs documents stay responsive under a request backlog -- the point
   of admission control); estimation and request errors queue so each
   connection's responses keep arrival order. *)
let handle st conn (frame : Protocol.frame) =
  let framing = frame.Protocol.framing in
  match frame.Protocol.request with
  | Protocol.Scrape { path } ->
      Metrics.incr scrapes_total;
      Transport.send st.transport conn framing (obs_response st path)
  | Protocol.Not_allowed _ ->
      Metrics.incr scrapes_total;
      Transport.send st.transport conn framing
        (Protocol.text_response ~status:405 "only GET is served here\n")
  | Protocol.Malformed { status; error } ->
      Metrics.incr scrapes_total;
      Transport.send st.transport conn framing
        (Protocol.text_response ~status (error ^ "\n"))
  | Protocol.Too_large { limit } ->
      (* answered in queue order, counted nowhere -- and, unlike the
         pre-split daemon, the connection survives: a line connection
         resynchronizes at the next newline *)
      Dispatch.submit_reject st.dispatch conn framing
        (Protocol.json_response ~status:413
           (Json.Object
              [
                ("ok", Json.Bool false);
                ( "error",
                  Json.String
                    (Printf.sprintf "request line exceeds %d bytes" limit) );
              ]))
  | Protocol.Invalid { id; error } ->
      Dispatch.submit_invalid st.dispatch conn framing
        ~bytes:frame.Protocol.bytes ~id ~error
  | Protocol.Estimate est ->
      Dispatch.submit_estimate st.dispatch conn framing
        ~bytes:frame.Protocol.bytes est

(* --- shutdown flag --- *)

let stop_requested = Atomic.make false

let install_signal_handlers () =
  let note _ = Atomic.set stop_requested true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle note)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle note)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let final_flush st =
  let reqs = Metrics.counter_value Dispatch.requests_total in
  Log.info ~event:"serve.shutdown"
    [
      ("uptime_s", Log.Float (uptime_s st));
      ("requests_total", Log.Int reqs);
      ("requests_ok", Log.Int (Metrics.counter_value Dispatch.requests_ok));
      ( "requests_failed",
        Log.Int (Metrics.counter_value Dispatch.requests_failed) );
    ];
  begin
    match st.config.metrics_out with
    | None -> ()
    | Some path ->
        let result =
          if Filename.check_suffix path ".json" then Metrics.write_json ~path
          else Metrics.write_prometheus ~path
        in
        (match result with
        | Ok () -> ()
        | Error e ->
            Log.error ~event:"serve.flush_failed"
              [ ("artifact", Log.Str "metrics"); ("error", Log.Str e) ])
  end;
  match st.config.trace_out with
  | None -> ()
  | Some path -> (
      match Mae_obs.Trace.write_chrome ~path with
      | Ok () -> ()
      | Error e ->
          Log.error ~event:"serve.flush_failed"
            [ ("artifact", Log.Str "trace"); ("error", Log.Str e) ])

let run (config : config) =
  match Transport.listen_on config.request_addr with
  | Error _ as e -> e
  | Ok (req_listener, request_addr) -> begin
      let obs =
        match config.obs_addr with
        | None -> Ok None
        | Some addr -> (
            match Transport.listen_on addr with
            | Ok (fd, bound) -> Ok (Some (fd, bound))
            | Error _ as e -> e)
      in
      match obs with
      | Error e ->
          Unix.close req_listener;
          Transport.unlink_unix_addr config.request_addr;
          Error e
      | Ok obs ->
          let obs_listener = Option.map fst obs in
          let obs_addr = Option.map snd obs in
          install_signal_handlers ();
          Atomic.set stop_requested false;
          (* tracing in a resident process keeps a bounded recent
             window; the final dump and /tracez both read it. *)
          Mae_obs.Span.set_retention (Some span_retention);
          if Option.is_some config.trace_out then Mae_obs.set_enabled true;
          (* the runtime lens rides with telemetry: GC pause sketches
             per domain, /runtimez, gc.* spans in the final trace *)
          if Mae_obs.enabled () then ignore (Mae_obs.Runtime.start ());
          (* declarative objectives over the request plane; both ride
             the same rolling multi-window burn-rate rings *)
          let slo_latency =
            Mae_obs.Slo.register
              (Mae_obs.Slo.spec
                 ~description:
                   (Printf.sprintf "%.0f%% of requests under %gms"
                      (100. *. config.slo.latency_target)
                      (config.slo.latency_threshold_s *. 1e3))
                 ~kind:(Mae_obs.Slo.Latency config.slo.latency_threshold_s)
                 ~target:config.slo.latency_target
                 ~fast_window_s:config.slo.fast_window_s
                 ~slow_window_s:config.slo.slow_window_s
                 ~min_events:config.slo.min_events "mae_serve_latency_slo")
          in
          let slo_errors =
            Mae_obs.Slo.register
              (Mae_obs.Slo.spec
                 ~description:
                   (Printf.sprintf "%.1f%% of requests without server errors"
                      (100. *. config.slo.error_target))
                 ~kind:Mae_obs.Slo.Error_rate ~target:config.slo.error_target
                 ~fast_window_s:config.slo.fast_window_s
                 ~slow_window_s:config.slo.slow_window_s
                 ~min_events:config.slo.min_events "mae_serve_errors_slo")
          in
          (* tail capture at its defaults: 8 slow / 32 errored span
             trees of at most 256 spans *)
          Mae_obs.Capture.configure ();
          let cas = Mae_db.Cas.create ?live_cap:config.store_live_cap () in
          (match config.store_journal with
          | None -> ()
          | Some path -> (
              match Mae_db.Cas.open_journal cas ~path with
              | Ok (loaded, skipped) ->
                  Log.info ~event:"serve.store_warm"
                    [
                      ("journal", Log.Str path);
                      ("loaded", Log.Int loaded);
                      ("skipped", Log.Int skipped);
                    ]
              | Error e ->
                  (* estimation must not die with the journal; run
                     cold and say so loudly *)
                  Log.error ~event:"serve.store_journal_failed"
                    [ ("journal", Log.Str path); ("error", Log.Str e) ]));
          let transport =
            Transport.create
              ~config:
                {
                  Transport.max_request_bytes = max_line_bytes;
                  idle_timeout_s = config.idle_timeout_s;
                  max_connections = config.max_connections;
                }
              ~listeners:
                ((req_listener, Transport.Request_plane)
                :: (match obs_listener with
                   | None -> []
                   | Some l -> [ (l, Transport.Obs_plane) ]))
          in
          let dispatch =
            Dispatch.create
              ~config:
                {
                  Dispatch.registry = config.registry;
                  inject_sleep_field = config.inject_sleep_field;
                  queue_watermark = config.queue_watermark;
                }
              ~transport ~cas ~slo_latency ~slo_errors
          in
          let st =
            {
              config;
              started = Unix.gettimeofday ();
              started_mono = Mae_obs.Clock.monotonic ();
              transport;
              dispatch;
              draining = false;
            }
          in
          Log.info ~event:"serve.start"
            ([
               ("addr", Log.Str (Format.asprintf "%a" pp_addr request_addr));
               ("pid", Log.Int (Unix.getpid ()));
             ]
            @
            match obs_addr with
            | None -> []
            | Some a ->
                [ ("obs_addr", Log.Str (Format.asprintf "%a" pp_addr a)) ]);
          config.on_ready ~request_addr ~obs_addr;
          Transport.run_loop transport
            ~stop:(fun () -> Atomic.get stop_requested)
            ~handle:(handle st)
            ~tick:(fun () -> Dispatch.tick st.dispatch);
          (* drain: no new connections; answer every request already
             received, give scrape connections their response, close all. *)
          st.draining <- true;
          Unix.close req_listener;
          Option.iter Unix.close obs_listener;
          Transport.drain transport ~handle:(handle st)
            ~tick:(fun () -> Dispatch.tick st.dispatch);
          Transport.unlink_unix_addr config.request_addr;
          Option.iter Transport.unlink_unix_addr config.obs_addr;
          (match config.store_out with
          | None -> ()
          | Some path -> (
              match Mae_db.Store.save (Mae_db.Cas.to_store cas) ~path with
              | Ok () ->
                  Log.info ~event:"serve.store_flush" [ ("store", Log.Str path) ]
              | Error e ->
                  Log.error ~event:"serve.flush_failed"
                    [ ("artifact", Log.Str "store"); ("error", Log.Str e) ]));
          Mae_db.Cas.close_journal cas;
          (* join the sampler and drain the cursor before the trace
             flush so the export carries the last GC windows *)
          Mae_obs.Runtime.stop ();
          final_flush st;
          Ok ()
    end

module Protocol = Protocol
module Transport = Transport
module Dispatch = Dispatch
module Top = Top

(** The resident estimation service behind [mae serve].

    A single-threaded select loop runs two planes over one transport:

    - {e request plane}: line-delimited JSON {e or} HTTP
      ([POST /estimate]) over TCP or a Unix-domain socket, with
      HTTP/1.1 keep-alive (Content-Length framing; HTTP/1.0 closes per
      request unless the client asks otherwise).  A request is
      [{"hdl": "<module text>", "id": <any>, "methods": <set>}], where
      the optional ["methods"] is a comma-separated string or an array
      of registry names (see {!Mae.Methodology}; the aliases
      ["default"] and ["all"] work) and defaults to the classic
      stdcell + full-custom set.  The response carries a
      server-assigned monotone ["seq"], the echoed ["id"], ["ok"], and
      one entry per module: the flat legacy fields ([rows],
      [stdcell_area], [fullcustom_exact_area], ...) when those
      methodologies ran, plus a ["methods"] object with one
      [{"ok", "kind", "area", "width", "height", ...}] value (or
      [{"ok": false, "error"}]) per selected methodology.  Requests
      queue through {!Dispatch}: concurrent arrivals coalesce into
      engine batches, and past the queue watermark a request is shed
      with ["ok": false] (HTTP [503] + [Retry-After]) without burning
      either SLO's budget.
    - {e observability plane} (optional second socket; the same
      documents also answer to [GET] on the request plane):
      [GET /metrics] (Prometheus text from the {!Mae_obs.Metrics}
      registry -- counters, histograms, and the {!Mae_obs.Sketch}
      quantile summaries with request-id exemplars), [/healthz]
      (liveness + engine/domain status; answers
      [503 Service Unavailable] while any SLO's fast-window error
      budget is exhausted), [/slo] (burn-rate reports for every
      registered objective, JSON), [/statusz] (one-page human-readable
      status: uptime, traffic, cache hit ratio, SLO burn table,
      latency quantiles, captured tails), [/buildinfo], [/tracez]
      (recent-span snapshot + flame rows + tail-based captures: full
      span trees of errored and slowest-k requests), and [/methods]
      (the methodology registry: names, docs, and the default set).

    Every request emits one [serve.request] access-log record through
    {!Mae_obs.Log} -- latency, rows selected, kernel-cache hit deltas
    -- scoped to request id [r<seq>], feeds the
    [mae_serve_request_seconds_summary] latency sketch (with the
    request id as exemplar), and burns the two built-in objectives
    ([mae_serve_latency_slo], [mae_serve_errors_slo]; only estimator
    crashes count against the error budget, malformed client input
    does not).  SIGINT/SIGTERM stop the accept loop, drain request
    frames already received, emit a final [serve.shutdown] record and
    flush the configured metrics/trace dumps.

    The implementation is layered -- {!Protocol} (the pure codec),
    {!Transport} (fds, buffers, timeouts), {!Dispatch} (queueing,
    batching, admission control, per-request bookkeeping) -- and this
    module is the wiring plus the observability documents. *)

type addr = Transport.addr =
  | Tcp of { host : string; port : int }
  | Unix_sock of string

val pp_addr : Format.formatter -> addr -> unit

val parse_addr : string -> (addr, string) result
(** ["7788"] and ["host:7788"] are TCP (empty host means loopback, TCP
    port [0] lets the kernel pick -- the bound port is reported via
    [on_ready]); ["unix:PATH"] or any string containing a slash is a
    Unix-domain socket path. *)

type slo_config = {
  latency_threshold_s : float;
      (** a request is good for the latency SLO iff it answers within
          this many seconds *)
  latency_target : float;  (** required good fraction, in (0, 1) *)
  error_target : float;
      (** required fraction of requests without server errors *)
  fast_window_s : float;  (** incident-reaction window (default 5 min) *)
  slow_window_s : float;  (** sustained-regression window (default 1 h) *)
  min_events : int;
      (** fast-window events required before /healthz may flip to 503 *)
}

val default_slo : slo_config
(** 99% under 250 ms; 99.9% without server errors; 300 s / 3600 s
    windows; 20 events minimum. *)

type config = {
  request_addr : addr;
  obs_addr : addr option;
  jobs : int;
      (** engine domains per request batch; [>= 2] spawns a persistent
          {!Mae_engine.Pool} at startup that every request reuses, and
          [0] means the host's recommended domain count *)
  registry : Mae_tech.Registry.t;
  trace_out : string option;  (** Chrome trace flushed at shutdown *)
  metrics_out : string option;  (** metrics dump flushed at shutdown *)
  max_line_bytes : int;
  span_retention : int;  (** recent-span window backing [/tracez] *)
  slo : slo_config;
  capture_slow_k : int;
      (** slowest-k requests whose span trees are retained per window *)
  capture_errored_cap : int;  (** errored-request capture FIFO size *)
  capture_max_spans : int;  (** span-tree truncation per capture *)
  inject_sleep_field : bool;
      (** honor a ["sleep_s"] request field (test-only overload
          injection; never exposed on the CLI) *)
  estimate_cache : bool;
      (** consult and populate the content-addressed estimate store
          ({!Mae_db.Cas}): a repeated request batch is answered from the
          store bit-for-bit and its response carries ["cached": true].
          Hits and misses count into
          [mae_estimate_cache_{hits,misses}_total]. *)
  store_journal : string option;
      (** append-only journal backing the estimate store, replayed at
          startup so a restarted daemon answers warm; every store insert
          appends.  A replay failure logs [serve.store_journal_failed]
          and the daemon runs cold rather than refusing to start. *)
  store_out : string option;
      (** {!Mae_db.Store}-format snapshot of the estimate store written
          at shutdown (a floor-planner feed) *)
  store_live_cap : int option;
      (** LRU bound on the estimate store's entries ({!Mae_db.Cas}),
          journal replay included; over the cap the least-recently-used
          entries are evicted and count into
          [mae_estimate_cache_evictions_total].  [None] is unbounded. *)
  idle_timeout_s : float;
      (** keep-alive connections idle longer than this (with no pending
          responses) are closed and counted into
          [mae_serve_connections_idle_closed_total] *)
  max_connections : int;
      (** open-connection cap across both planes; beyond it new
          connections are accepted and immediately closed
          ([mae_serve_connections_rejected_total]) *)
  queue_watermark : int;
      (** queued (unstarted) estimate requests at/over this are shed:
          answered ["ok": false] with ["retry_after_s"] (HTTP [503] +
          [Retry-After]) without estimation; shed requests count into
          [mae_serve_requests_shed_total] and requests_total/failed but
          burn neither SLO *)
  max_batch : int;
      (** estimate requests coalesced into one engine batch per
          dispatch tick *)
  on_ready : request_addr:addr -> obs_addr:addr option -> unit;
      (** called once both listeners are bound, with kernel-assigned
          ports resolved *)
}

val default_config :
  registry:Mae_tech.Registry.t -> request_addr:addr -> config
(** [jobs = 1], no obs plane, no dumps, 8 MiB line cap, 4096-span
    retention, {!default_slo}, capture 8 slow / 32 errored / 256 spans,
    no sleep injection, estimate store on (no journal, no snapshot,
    capped at 65536 entries), 300 s idle timeout, 1024 connections,
    watermark 256, batches of 32, no-op [on_ready]. *)

val run : config -> (unit, string) result
(** Serve until SIGINT/SIGTERM, then drain and flush.  [Error] means
    the listeners could not be bound (nothing was served).  Installs
    handlers for SIGINT/SIGTERM and ignores SIGPIPE. *)

module Protocol = Protocol
(** The pure request/response codec (line-delimited JSON and HTTP
    decode to one typed request; unit-testable without sockets). *)

module Transport = Transport
(** Fd lifecycle: listeners, buffered reads, keep-alive connections,
    idle reaping, the connection cap. *)

module Dispatch = Dispatch
(** The bounded submission queue: engine batching and admission
    control. *)

module Top = Top
(** The [mae top] dashboard client (see {!Top}). *)

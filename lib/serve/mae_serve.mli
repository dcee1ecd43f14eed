(** The resident estimation service behind [mae serve].

    A single-threaded select loop runs two planes over one transport,
    and every request estimates on that loop's domain (the daemon
    never fans a request out across domains):

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
      queue through {!Dispatch}, each answered by its own engine run,
      and past the queue watermark a request is shed
      with ["ok": false] (HTTP [503] + [Retry-After]) without
      estimating.
    - {e observability plane} (optional second socket; the same
      documents also answer to [GET] on the request plane):
      [GET /metrics] (Prometheus text from the {!Mae_obs.Metrics}
      registry -- counters, gauges, and the {!Mae_obs.Sketch}
      quantile summaries with request-id exemplars), [/healthz]
      (liveness + engine status; always [200], with ["status"] ["ok"]
      or, once shutdown has begun, ["draining"]), [/buildinfo],
      [/tracez] (recent-span
      snapshot + flame rows + tail-based captures: full span trees of
      errored and slowest-k requests), [/methods] (the methodology
      registry: names, docs, and the default set) and [/runtimez]
      (the runtime lens: per-domain GC statistics and process
      telemetry).

    Every request emits one [serve.request] access-log record through
    {!Mae_obs.Log} -- latency, rows selected, kernel-cache hit deltas
    -- scoped to request id [r<seq>], and feeds the
    [mae_serve_request_seconds_summary] latency sketch (with the
    request id as exemplar).  SIGINT/SIGTERM stop the accept loop,
    drain request frames already received, emit a final
    [serve.shutdown] record and flush the configured metrics/trace
    dumps.

    The implementation is layered -- {!Protocol} (the pure codec),
    {!Transport} (fds, buffers, timeouts), {!Dispatch} (queueing,
    admission control, per-request bookkeeping) -- and this module is
    the wiring plus the observability documents.

    Fixed, not configurable: request frames are capped at 8 MiB (an
    oversized frame answers 413 and the connection resynchronizes), the
    span window backing [/tracez] holds 4096 spans, and tail capture
    keeps {!Mae_obs.Capture}'s defaults (8 slow and 32 errored span
    trees of at most 256 spans).  Every daemon consults the
    content-addressed estimate store ({!Mae_db.Cas}): a repeated
    request is answered from it bit-for-bit with ["cached": true], and
    hits and misses count into
    [mae_estimate_cache_{hits,misses}_total]. *)

type addr = Transport.addr =
  | Tcp of { host : string; port : int }
  | Unix_sock of string

val pp_addr : Format.formatter -> addr -> unit

val parse_addr : string -> (addr, string) result
(** ["7788"] and ["host:7788"] are TCP (empty host means loopback, TCP
    port [0] lets the kernel pick -- the bound port is reported via
    [on_ready]); ["unix:PATH"] or any string containing a slash is a
    Unix-domain socket path. *)

type config = {
  request_addr : addr;
  obs_addr : addr option;
  registry : Mae_tech.Registry.t;
  trace_out : string option;  (** Chrome trace flushed at shutdown *)
  metrics_out : string option;  (** metrics dump flushed at shutdown *)
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
          [mae_serve_requests_shed_total] and requests_total/failed *)
  on_ready : request_addr:addr -> obs_addr:addr option -> unit;
      (** called once both listeners are bound, with kernel-assigned
          ports resolved *)
}

val default_config :
  registry:Mae_tech.Registry.t -> request_addr:addr -> config
(** No obs plane, no dumps, no store journal or snapshot, the store
    capped at 65536 entries, 300 s idle timeout, 1024 connections,
    watermark 256, no-op [on_ready]. *)

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
(** The bounded submission queue: one engine run per estimate, and
    admission control. *)

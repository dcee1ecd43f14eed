(** The metrics registry: named counters and gauges, with
    Prometheus-text and JSON dumps.

    Instruments are backed by atomics -- update them freely from any
    domain; no update takes a lock.  Registration is idempotent:
    asking for an existing name of the same kind returns the already
    registered instrument, asking for it as a different kind raises
    [Invalid_argument].  Names must match [mae_[a-z0-9_]+] -- the
    registry lints at registration time so metric-name drift is
    caught the moment a PR introduces it.

    Counters and gauges are always live, even with telemetry off --
    they replace hand-rolled statistics ints and cost the same.
    Latencies are recorded by {!Sketch}, whose summaries ride along in
    both dumps. *)

type counter
type gauge

val valid_name : string -> bool
(** Does the name match [mae_[a-z0-9_]+]? *)

val lint_name : ?what:string -> string -> unit
(** Raise [Invalid_argument] (prefixed with [what]) unless
    {!valid_name}.  Shared by every registry in the obs layer. *)

(** {1 Counters} *)

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val reset_counter : counter -> unit
(** For subsystem [clear] entry points (e.g. the kernel cache);
    Prometheus scrapers treat it as a counter reset. *)

(** {1 Gauges} *)

val gauge : ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Registry introspection} *)

val find_counter : string -> counter option
val find_gauge : string -> gauge option

val reset_values : unit -> unit
(** Zero every registered counter and gauge (registrations persist).
    [Mae_obs.reset] also empties every {!Sketch}. *)

(** {1 Exporters} *)

val register_exposition :
  key:string -> prometheus:(unit -> string) -> json:(unit -> string) -> unit
(** Contribute an extra section to both dumps: [prometheus] returns a
    text-exposition fragment appended after the registered metrics,
    [json] returns a JSON object added under [key] at the top level.
    Idempotent by [key]; used by {!Sketch} so summaries ride along in
    every /metrics scrape and [--metrics-out] file. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format, metrics sorted by name; every
    metric carries [# HELP] and [# TYPE] lines. *)

val to_json : unit -> string
(** The same data as one JSON object:
    [{"counters": {..}, "gauges": {..}, ...}] plus any registered
    exposition sections (e.g. ["sketches"]). *)

val write_prometheus : path:string -> (unit, string) result
val write_json : path:string -> (unit, string) result

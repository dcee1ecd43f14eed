(** The metrics registry: every instrument of the process -- named
    counters, gauges and GK latency summaries -- in one table, with the
    one exporter that writes it as Prometheus text or JSON.

    Counters and gauges are backed by atomics -- update them freely
    from any domain; no update takes a lock.  A summary is a family of
    {!Sketch}es, one per constant label set.  Registration is
    idempotent: asking for an existing name of the same kind returns
    the already registered instrument.  Names must match
    [mae_[a-z0-9_]+] -- the registry lints at registration time so
    metric-name drift is caught the moment a PR introduces it.  Every
    registration raises [Invalid_argument] when its name is registered
    as another kind, or when a series it would expose (a summary's
    [_sum] and [_count] included) belongs to another family: one name,
    one family, in both dumps.

    Counters and gauges are always live, even with telemetry off --
    they replace hand-rolled statistics ints and cost the same.
    Summaries are fed by {!Span.with_}, so only while telemetry is on. *)

type counter
type gauge

(** {1 Counters} *)

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val reset_counter : counter -> unit
(** Zero one counter, as {!reset_values} does for all of them;
    Prometheus scrapers treat it as a counter reset. *)

(** {1 Gauges} *)

val gauge : ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Summaries} *)

val summary :
  ?help:string ->
  ?eps:float ->
  ?labels:(string * string) list ->
  string ->
  Sketch.t
(** [summary name] registers (or returns, idempotently) the sketch of
    the summary family [name] with the given constant [labels]
    ([[("domain", "3")]]; default none).  Series of one family share
    its HELP/TYPE lines, its [eps] and its exposition, each with its
    labels merged with the [quantile] label.  [eps] is the rank-error
    fraction, fixed by the family's first registration (default
    [0.001]); omitting it later accepts the family's.  Label names
    must match [[a-z_][a-z0-9_]*] and not be [quantile]; values must
    not contain quotes, backslashes or newlines.  Raises
    [Invalid_argument] on a bad name or label, [eps] outside
    (0, 0.5), or an explicit [eps] differing from the family's. *)

(** {1 Registry introspection} *)

val find_counter : string -> counter option
val find_gauge : string -> gauge option

val find_summaries : string -> ((string * string) list * Sketch.t) list
(** The series of the summary family [name] as [(labels, sketch)],
    sorted by labels; [[]] when no such summary is registered. *)

val reset_values : unit -> unit
(** Zero every registered counter and gauge and empty every summary
    (registrations persist). *)

(** {1 The exporter} *)

val to_prometheus : unit -> string
(** Prometheus text exposition format, families sorted by name; every
    family carries one [# HELP] and one [# TYPE] line.  Summaries print
    their quantile, [_sum] and [_count] series, with exemplars as
    trailing [# EXEMPLAR] comment lines. *)

val to_json : unit -> string
(** The same data as one JSON object:
    [{"counters": {..}, "gauges": {..}, "sketches": {..}}], where each
    summary series is keyed by its name ([name{k=v,..}] when
    labelled). *)

val write_prometheus : path:string -> (unit, string) result
val write_json : path:string -> (unit, string) result
(** {!to_prometheus} / {!to_json} into [path], replaced whole
    ({!Atomic_file}). *)

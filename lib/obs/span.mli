(** Nested timed spans, one log for every domain.

    [with_ ~name f] times [f] and appends a span, tagged with the
    calling domain, to one process-wide log behind one mutex -- one
    short critical section per closed span.  When telemetry is off
    ({!Control.enabled} [= false]) the combinator is one atomic read
    and a tail call.

    Spans nest lexically per domain; a span closed while an exception
    unwinds is still recorded.  Spans stay in the log after their
    domain exits, so the exporter sees every lane of a finished
    batch. *)

type event = {
  name : string;
  attrs : (string * string) list;
  domain : int;  (** [Domain.id] of the recording domain *)
  depth : int;  (** 0 for the root span of its lane *)
  ts : float;  (** monotonic start ({!Clock.monotonic}); convert with
                   {!Clock.wall_of_monotonic} for display *)
  dur : float;  (** seconds *)
  self : float;  (** [dur] minus the time spent in child spans *)
}

val with_ :
  ?attrs:(string * string) list ->
  ?summary:Sketch.t ->
  name:string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span.  With [summary], the span is also the
    region's latency timer: the span's [dur] is observed into it, once,
    on return and on an exception alike.  No-op (beyond one atomic
    read) when telemetry is disabled: no span and no sample. *)

val close_since : name:string -> float -> float
(** [close_since ~name start] records a span from [start] (a
    {!Clock.monotonic} instant the caller read) to now, as a leaf
    child of the innermost open span, and returns its [dur].  It is for
    a region that deserves a span only once it has run: the serve
    transport opens [serve.decode] only around a decode that yielded a
    frame.  With telemetry off it records nothing and returns [0.]. *)

val events : unit -> event list
(** Every recorded span across all domains, sorted by domain then
    start time.  Call after in-flight estimation has finished (the
    engine joins its workers before returning). *)

val events_since : float -> event list
(** Spans whose start is at or after the given {!Clock.monotonic}
    instant, same ordering as {!events}.  The scan runs from the newest
    closed span and stops at the first one that closed before the
    instant, so its cost follows the spans closed since then, not the
    retention window -- the serve plane calls this once per finished
    request for tail-based trace capture. *)

val reset : unit -> unit
(** Drop all recorded spans.  Do not call while spans are open on
    another domain. *)

val set_retention : int option -> unit
(** [Some n] bounds the whole log, every domain's spans together, to
    at most [2n] spans: past that it trims back to the [n] most recent.
    A resident server keeps tracing on without unbounded memory, and
    [/tracez] serves a recent window.  [None] (the default) keeps
    everything, the batch-CLI behavior.  Raises [Invalid_argument] on
    [n < 1]. *)

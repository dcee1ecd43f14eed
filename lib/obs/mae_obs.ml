(* Mae_obs: the in-pipeline observability layer.

   One switch, one registry, one timer:

   - {!Span}: nested timed spans ([Span.with_ ~name f]), every domain's
     closed spans in one log behind one mutex, exported by {!Trace} as
     Chrome trace-event JSON (one lane per domain) or a plain-text
     flame summary.  A span given a summary ([Span.with_ ~summary])
     is also the region's latency timer: it observes the [dur] it
     records, so each timed region reads the clock once at each end.
   - {!Metrics}: the one instrument registry -- counters, gauges and
     latency summaries in one name-checked table -- and the one
     exporter of Prometheus text and JSON.  Counters and gauges are
     always live; they back the engine's [--stats] line.
   - {!Sketch}: the GK quantile summary behind every summary (true
     p50/p99/p999, no bucket edges), one lock per sketch, with
     request-id exemplars.
   - {!Capture}: tail-based trace retention -- full span trees kept
     only for errored and slowest-k requests, bounded memory.
   - {!Clock}: monotonic time for every duration measurement; wall
     clock only for display timestamps.
   - {!Log}: leveled JSON-lines structured logging with request-id
     scoping; the serve daemon's access log.  Off by default, and a
     single atomic check per disabled call site, like spans.
   - {!Runtime}: the runtime lens -- a self-monitoring Runtime_events
     consumer that attributes GC pauses, collections and allocation
     pressure per domain (summaries on /metrics, gc.* spans in
     traces, GET /runtimez), with {!Procstat} process gauges from
     /proc.  Explicitly started; a single atomic check when off.
   - {!Atomic_file}: every output file (traces, metrics dumps, the
     estimate snapshot, the check report) is written to a temporary
     file and renamed over the old one, so a cut never truncates it.
   - {!Control} (re-exported below): the single [enabled] flag.  With
     telemetry off, every instrumented code path costs one atomic
     read -- the @obs-smoke bench holds the pipeline to that.

   The library depends on nothing outside the compiler distribution
   (stdlib + unix for the wall clock + runtime_events for the GC
   lens). *)

module Control = Control
module Clock = Clock
module Span = Span
module Metrics = Metrics
module Sketch = Sketch
module Capture = Capture
module Trace = Trace
module Json = Json
module Log = Log
module Runtime = Runtime
module Procstat = Procstat
module Atomic_file = Atomic_file

let enabled = Control.enabled
let set_enabled = Control.set_enabled
let with_enabled = Control.with_enabled

let reset () =
  Span.reset ();
  Metrics.reset_values ()

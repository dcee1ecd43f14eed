(** The runtime lens: GC and domain profiling via OCaml 5
    [Runtime_events], self-monitoring mode.

    {!start} opens an in-process cursor over the runtime's per-domain
    event rings and spawns a sampler domain that drains them on an
    interval.  While running, the lens

    - folds top-level GC pause windows into one {!Sketch} per ring,
      labelled [{domain="<ring>"}], exported on /metrics as the
      [mae_gc_pause_seconds_summary] family;
    - maintains [mae_gc_*] counters (minor/major collections, pause
      windows, words allocated/promoted, lost events) and gauges
      (major heap words, domains observed);
    - keeps recent pause windows so {!pause_seconds_since} can tag a
      request window with the GC time that landed inside it, and
      {!Trace} reads them ({!gc_events}) as [gc.*] spans into its
      Chrome export;
    - refreshes {!Procstat}'s [mae_process_*] gauges every tick.

    Off means off: until the first {!start} nothing is registered, no
    cursor or ring file exists, and every query gates on a single
    [Atomic.get] ({!pause_seconds_since} and {!poll} return 0).  A
    200-module batch with telemetry off is bit-for-bit identical to
    one that never linked this module -- the test suite holds it to
    that.

    "Domain" here means the runtime's ring buffer index: one ring per
    live domain, possibly reused after a domain exits.  It coincides
    with [Domain.id] only until the first domain exits; the engine
    joins its worker domains at the end of every parallel batch. *)

val start : unit -> bool
(** Start event collection, create the cursor and spawn the sampler
    (one tick every 50 ms).  Returns [false] (and does nothing) when
    already running.  Safe to call again after {!stop}; statistics
    accumulate across sessions. *)

val stop : unit -> unit
(** Join the sampler, drain the cursor one final time, free it, and
    pause runtime event collection.  Idempotent; queries over the
    accumulated statistics keep working after. *)

val running : unit -> bool

val poll : unit -> int
(** Drain pending events synchronously from the calling domain;
    returns the number consumed, 0 when the lens is off (single
    atomic check).  The sampler does this on its own -- call it when
    you need the very latest window (tests, /runtimez, trace export).
    Observations made by the poll are published before it returns. *)

val pause_seconds_since : float -> float
(** Total GC pause seconds from windows ending at or after the given
    {!Clock.monotonic} instant -- the serve plane calls this with the
    request start to tag captures and access logs.  Polls first; [0.]
    when the lens is off (single atomic check). *)

val pause_count : unit -> int
val max_pause_seconds : unit -> float option

val pause_quantile : float -> float option
(** Pooled quantile over every domain's pause sketch
    ({!Sketch.quantile_of_many}); the GC regression gate reads p99
    through this. *)

type domain_stats = {
  d_ring : int;  (** ring buffer index ("domain" label) *)
  d_pauses : int;
  d_pause_total_s : float;
  d_max_pause_s : float;
  d_p50_pause_s : float option;
  d_p99_pause_s : float option;
  d_minors : int;
  d_major_slices : int;
  d_major_cycles : int;
  d_allocated_words : int;
  d_promoted_words : int;
  d_heap_words : int;  (** latest pool + large words *)
}

val domains : unit -> domain_stats list
(** Per-ring statistics, sorted by ring id. *)

val gc_events : unit -> Span.event list
(** Recent pause windows as spans ([gc.minor], [gc.major_slice],
    [gc.stw_leader], ...), ascending start time; bounded store.
    {!Trace.to_chrome_string} merges them into every Chrome export. *)

val to_json : unit -> Json.t
(** The GET /runtimez document: sampler state, aggregate and
    per-domain GC statistics, and the {!Procstat} process section. *)

val reset : unit -> unit
(** Zero accumulated statistics and recent windows (instrument
    registrations and the sampler, if running, persist).  Tests only. *)

(** Time sources for the observability layer.

    Every latency / duration measurement in the pipeline uses
    {!monotonic}: a clock that never steps backwards when NTP adjusts
    the system time, so sketches, spans and BENCH_history deltas
    can't record negative or wildly inflated durations.  Wall-clock
    time ({!wall}) remains the source for human-facing timestamps
    (log records, Chrome-trace epoch offsets, bench history entries).

    The monotonic epoch is arbitrary (typically boot time); only
    differences are meaningful.  {!wall_of_monotonic} converts a
    monotonic reading to an approximate wall-clock timestamp using the
    offset sampled at module initialization -- good enough for
    display, not for ordering against other hosts. *)

val monotonic : unit -> float
(** Seconds from an arbitrary fixed origin; never decreases.  Backed
    by [clock_gettime(CLOCK_MONOTONIC)] via a C stub. *)

val wall : unit -> float
(** Seconds since the Unix epoch ([Unix.gettimeofday]). *)

val wall_of_monotonic : float -> float
(** Map a {!monotonic} reading to an approximate epoch timestamp
    using the wall/monotonic offset captured at startup. *)

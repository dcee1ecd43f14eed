(** Append-only perf trajectory written by the engine bench and the
    load gate and read by the perf gate.  Each call writes one line to
    [BENCH_history.jsonl] in the working directory: a JSON object with
    ["ts"] (epoch seconds), ["source"], the given fields, and a ["gc"]
    object (cumulative collection counts and allocated words from
    [Gc.quick_stat], plus pause count / max / p99 from
    {!Mae_obs.Runtime} when the bench ran the lens). *)

val path : string

val append : source:string -> (string * Mae_obs.Json.t) list -> unit

val with_own_gc_p99 : (unit -> 'a) -> 'a * float option
(** Run the thunk with the runtime lens drained and zeroed first, and
    return its result with the p99 GC pause observed during it alone.
    [None] when the lens is not running or saw no pause.  Resets the
    lens's accumulated statistics. *)

(** Multicore batch-estimation engine.

    Fans circuits across OCaml 5 domains, runs
    {!Mae.Driver.run_circuit} on each, and returns per-module results
    {e in deterministic input order} no matter which domain estimated
    which module.  A module that fails (driver error or exception)
    yields an [Error] slot; the rest of the batch is unaffected.

    There is one batch path, {!run_circuits_with_stats}; {!run_circuits}
    keeps only its results.  To estimate HDL text or a file,
    elaborate it with {!Mae.Driver.string_circuits} (or
    [design_circuits], [file_circuits]) and pass the circuits on.  Every
    entry point takes the driver's [?methods] selection (see
    {!Mae.Methodology}); linking this library guarantees the four
    baseline methodologies from {!Mae_baselines.Methods} are registered,
    so all eight estimators are selectable by name in batch requests.

    The engine always estimates: it consults no estimate store.  The
    serve daemon looks each module up in its store before it calls the
    engine, and passes only the misses on.

    The probability kernels shared by all modules -- row-span
    distributions, feed-through binomials -- are memoized in the
    domain-safe {!Mae_prob.Kernel_cache}, so a batch pays for each
    [(rows, degree)] kernel once across all domains.

    Scheduling: every worker claims the next chunk of
    [max 1 (n / (8 * workers))] modules from one shared atomic counter
    until the batch is drained.  Result slot [i] always receives the
    estimate of module [i] whatever the schedule, so output order and
    bits are independent of [jobs] and of which worker claimed what.
    Worker 0 is the calling domain.  A batch with [jobs >= 2] spawns
    its other workers' domains itself (0.1-0.3 ms each) and joins them
    all before it returns; the serve daemon runs every request at
    [jobs = 1] on its own domain.

    The engine is instrumented through {!Mae_obs}: with telemetry on
    ({!Mae_obs.set_enabled}) every batch records an [engine.batch]
    span, one [engine.worker] root span per domain lane, and the
    per-module latency sketch [mae_engine_module_seconds_summary]; the
    always-on counters [mae_engine_modules_total] /
    [..._ok_total] / [..._failed_total] and the
    [mae_engine_queue_wait_seconds] gauge live in the
    {!Mae_obs.Metrics} registry. *)

type error =
  | Driver_error of Mae.Driver.error
  | Crashed of { module_name : string; exn : string }
      (** an exception escaped the estimator for this module *)

val pp_error : Format.formatter -> error -> unit

type stats = {
  modules : int;
  ok : int;
  failed : int;
  jobs : int;  (** domains requested ([0] resolved); see [per_domain] *)
  elapsed_s : float;  (** wall-clock batch time *)
  cache_hits : int;
      (** kernel-cache hits during this batch, summed from the workers'
          domain-local counts -- exact for this batch even when other
          batches run concurrently on other domains *)
  cache_misses : int;
  per_domain : int array;
      (** how many modules each worker estimated; its length is the
          number of domains used.  Slot 0 is the calling domain, the
          rest are the batch's spawned domains in spawn order *)
}

val pp_stats : Format.formatter -> stats -> unit
(** One line: domains used, throughput, kernel-cache hits/misses with
    hit rate, and the per-domain module counts. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

(** Requesting more domains than {!default_jobs} is honoured (the
    determinism contract holds for any [jobs]) but announced loudly:
    one stderr warning per process, a [engine.jobs_oversubscribed]
    {!Mae_obs.Log} warn record per batch, and the
    [mae_engine_jobs_oversubscribed] gauge set to the excess --
    oversubscribing a 1-core host measured 0.18x of sequential in
    BENCH_engine.json.  Each batch additionally emits an
    [engine.batch] debug log record when {!Mae_obs.Log} is at
    [Debug]. *)

val run_circuits_with_stats :
  ?methods:string list ->
  ?jobs:int ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list * stats
(** The batch path: one fan-out (one claiming pass) over the
    circuits, results in input order.  [stats] covers the batch.

    [methods] selects the methodologies each module runs (default
    ["default"]; see {!Mae.Methodology.resolve}).  [jobs] is the number
    of domains: omitted or [1] runs sequentially on the calling domain,
    [0] means {!default_jobs}, [n >= 2] spawns up to [n - 1] more
    domains for this batch (the caller is the n-th worker; never more
    workers than modules).  If a worker raises, every domain is still
    joined before the first exception is re-raised.  Raises
    [Invalid_argument] on a negative [jobs].  Results are bit-for-bit
    independent of [jobs]. *)

val run_circuits :
  ?methods:string list ->
  ?jobs:int ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list
(** The results of {!run_circuits_with_stats}. *)

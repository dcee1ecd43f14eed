(** Multicore batch-estimation engine.

    Fans circuits across an OCaml 5 [Domain] pool, runs
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

    The probability kernels shared by all modules -- row-span
    distributions, feed-through binomials -- are memoized in the
    domain-safe {!Mae_prob.Kernel_cache}, so a batch pays for each
    [(rows, degree)] kernel once across all domains.

    Scheduling: every worker claims the next chunk of
    [max 1 (n / (8 * workers))] modules from one shared atomic counter
    until the batch is drained.  Result slot [i] always receives the
    estimate of module [i] whatever the schedule, so output order and
    bits are independent of [jobs] and of which worker claimed what.
    Every fan-out goes through a {!Pool}: callers that run many
    batches (the serve daemon, benches) should create one once and pass
    it to every run; without one, a batch with [jobs >= 2] creates a
    pool of its own and shuts it down when it returns.

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
  store_hits : int;
      (** estimate-store lookups answered from {!Mae_db.Cas}, counted
          from this batch's own per-module lookups -- exact even when
          other batches share the store concurrently *)
  store_misses : int;
  per_domain : int array;
      (** how many modules each worker estimated; its length is the
          number of domains used.  Slot 0 is the calling domain, the
          rest are pool domains in spawn order *)
}

val pp_stats : Format.formatter -> stats -> unit
(** One line: domains used, throughput, kernel-cache hits/misses with
    hit rate, and the per-domain module counts. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

(** A persistent domain pool: spawn once, reuse across batches.

    Domains park on a condition variable between batches, so a batch
    submission costs one lock round-trip and a broadcast instead of
    [jobs - 1] [Domain.spawn]s (each worth several cached modules).
    Pass the pool to {!run_circuits_with_stats} via [?pool]; the
    calling domain always participates as worker 0, pool domains serve
    the remaining slots (idle when the batch requests fewer jobs than
    the pool offers).  A pool runs one batch at a time -- submitting
    from two threads concurrently raises [Invalid_argument]. *)
module Pool : sig
  type t

  val create : domains:int -> t
  (** Spawn [domains] parked worker domains ([domains >= 0]; 0 is a
      valid pool that adds nothing to the calling domain). *)

  val concurrency : t -> int
  (** [domains + 1]: the pool's worker slots including the caller. *)

  val shutdown : t -> unit
  (** Wake and join every domain.  Idempotent.  A shut-down pool has
      [concurrency] 1, so batches handed one degrade to running
      sequentially on the calling domain (results are identical by the
      determinism contract); submitting directly to it raises
      [Invalid_argument]. *)
end

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
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list * stats
(** The batch path: one fan-out (one pool submission, one claiming
    pass) over the circuits, results in input order.  [stats] covers
    the batch; its store counts come from this batch's own lookups.

    [methods] selects the methodologies each module runs (default
    ["default"]; see {!Mae.Methodology.resolve}).  [jobs] is the number
    of domains: omitted or [1] runs sequentially on the calling domain,
    [0] means {!default_jobs}, [n >= 2] uses up to [n - 1] more domains
    (the caller is the n-th worker; never more workers than modules, nor
    than a given pool's {!Pool.concurrency}).  Raises [Invalid_argument] on a negative
    [jobs].  Results are bit-for-bit independent of [jobs] and of
    [pool]. *)

val run_circuits :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list
(** The results of {!run_circuits_with_stats}. *)

(** {1 Estimate store}

    Pass [?cache] (a {!Mae_db.Cas.t}) to a batch and each module is
    first looked up by its content address (canonical circuit +
    process fingerprint + registry version + resolved method set); hits
    return the stored results bit-for-bit, rebuilt around the caller's
    circuit with [issues = []] and [expanded = None], and count into
    [mae_estimate_cache_hits_total] and the batch's [store_hits].  Runs
    with an explicit [?config] bypass the store (no lookup, no store
    count): a config changes results but is not part of the address. *)

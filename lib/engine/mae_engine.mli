(** Multicore batch-estimation engine.

    Fans a list of circuits (or the modules of an HDL file) across an
    OCaml 5 [Domain] pool, runs {!Mae.Driver.run_circuit} on each, and
    returns per-module results {e in deterministic input order} no
    matter which domain estimated which module.  A module that fails
    (driver error or exception) yields an [Error] slot; the rest of the
    batch is unaffected.

    Every entry point takes the driver's [?methods] selection (see
    {!Mae.Methodology}); linking this library guarantees the four
    baseline methodologies from {!Mae_baselines.Methods} are registered,
    so all eight estimators are selectable by name in batch requests.

    The probability kernels shared by all modules -- row-span
    distributions, feed-through binomials -- are memoized in the
    domain-safe {!Mae_prob.Kernel_cache}, so a batch pays for each
    [(rows, degree)] kernel once across all domains.

    Scheduling: the input array is block-partitioned across workers and
    drained in chunks of [max 1 (n / (8 * workers))] claimed with one
    atomic per chunk; a worker whose block runs dry steals chunks from
    the others.  Result slot [i] always receives the estimate of module
    [i] whatever the schedule, so output order and bits are independent
    of [jobs] and of stealing.  Callers that run many batches (the
    serve daemon, benches) should create a {!Pool} once and pass it to
    every run: the pool parks its domains between batches, replacing the
    per-batch [Domain.spawn] cost with one broadcast.

    The engine is instrumented through {!Mae_obs}: with telemetry on
    ({!Mae_obs.set_enabled}) every batch records an [engine.batch]
    span, one [engine.worker] root span per domain lane, and the
    per-module latency histogram [mae_engine_module_seconds]; the
    always-on counters [mae_engine_modules_total] /
    [..._ok_total] / [..._failed_total] and the
    [mae_engine_queue_wait_seconds] gauge live in the
    {!Mae_obs.Metrics} registry. *)

type error =
  | Driver_error of Mae.Driver.error
  | Crashed of { module_name : string; exn : string }
      (** an exception escaped the estimator for this module *)
  | Invalid_edit of { module_name : string; reason : string }
      (** {!reestimate} was handed an edit the circuit cannot take *)

val pp_error : Format.formatter -> error -> unit

type stats = {
  modules : int;
  ok : int;
  failed : int;
  jobs : int;  (** domains actually used *)
  elapsed_s : float;  (** wall-clock batch time *)
  cache_hits : int;
      (** kernel-cache hits during this batch, summed from the workers'
          domain-local counts -- exact for this batch even when other
          batches run concurrently on other domains *)
  cache_misses : int;
  store_hits : int;
      (** estimate-store lookups answered from {!Mae_db.Cas} during this
          batch (before/after deltas of the process-wide counters: exact
          when batches run one at a time, as in the serve daemon) *)
  store_misses : int;
  per_domain : int array;
      (** how many modules each worker estimated; slot 0 is the calling
          domain, the rest are pool/spawned domains in spawn order *)
}

val pp_stats : Format.formatter -> stats -> unit
(** One line: throughput, kernel-cache hits/misses with hit rate, and
    the per-domain module counts. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

(** A persistent domain pool: spawn once, reuse across batches.

    Domains park on a condition variable between batches, so a batch
    submission costs one lock round-trip and a broadcast instead of
    [jobs - 1] [Domain.spawn]s (each worth several cached modules).
    Pass the pool to {!run_circuits} and friends via [?pool]; the
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

val run_circuits :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list
(** Estimate every circuit.  [methods] selects the methodologies each
    module runs (default ["default"]; see {!Mae.Methodology.resolve}).
    [jobs] is the number of domains: omitted or [1] runs sequentially on
    the calling domain, [0] means {!default_jobs}, [n >= 2] spawns
    [n - 1] additional domains (the caller is the n-th worker).  Raises
    [Invalid_argument] on a negative [jobs].  Output order equals input
    order and is bit-for-bit independent of [jobs]. *)

val run_circuits_with_stats :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (Mae.Driver.module_report, error) result list * stats

val run_grouped :
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list list ->
  (((Mae.Driver.module_report, error) result list * int * int) list * stats)
(** The coalescing batch entry point: each inner list is one request's
    circuits; the concatenation runs as a single engine fan-out (one
    pool submission, one work-stealing pass) and each group comes back
    as [(results, store_hits, store_misses)] with results in input
    order and the store counts taken from per-module lookup flags --
    exact per-group accounting even though the engine saw one batch.
    [stats] covers the whole batch.  Per-module results are bit-for-bit
    what per-request {!run_circuits_with_stats} calls would produce. *)

val run_design :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  Mae_hdl.Ast.design ->
  ((Mae.Driver.module_report, error) result list, Mae.Driver.error) result
(** Elaborate a parsed multi-module design, then fan the modules out.
    Elaboration failures abort the whole batch (there is nothing to
    estimate); per-module estimation failures are isolated as [Error]
    slots. *)

val run_string :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  string ->
  ((Mae.Driver.module_report, error) result list, Mae.Driver.error) result

val run_file :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Mae_db.Cas.t ->
  registry:Mae_tech.Registry.t ->
  string ->
  ((Mae.Driver.module_report, error) result list, Mae.Driver.error) result

(** {1 Estimate store}

    Pass [?cache] (a {!Mae_db.Cas.t}) to any entry point and each module
    is first looked up by its content address (canonical circuit +
    process fingerprint + registry version + resolved method set); hits
    return the stored results bit-for-bit, rebuilt around the caller's
    circuit with [issues = []] and [expanded = None], and count into
    [mae_estimate_cache_hits_total].  Runs with an explicit [?config]
    bypass the store: a config changes results but is not part of the
    address. *)

(** {1 Incremental re-estimation}

    The delta path: apply a netlist edit to an already-estimated module
    and recompute only the methodologies whose inputs actually changed,
    updating the shared statistics context incrementally where the edit
    permits. *)

type edit =
  | Add_device of { name : string; kind : string; nets : string list }
      (** pins connect to the named nets in order; unknown net names are
          created (appended after the existing nets) *)
  | Remove_device of { name : string }
  | Add_net of { name : string }  (** a new floating net *)
  | Remove_net of { name : string }
      (** the net must be floating (degree 0) and not bound to a port *)

val apply_edit :
  Mae_netlist.Circuit.t -> edit -> (Mae_netlist.Circuit.t, string) result
(** The edited circuit, rebuilt with net and device index order
    preserved and additions appended last -- the property that makes the
    [Add_*] statistics deltas exact. *)

type reestimate_report = {
  report : Mae.Driver.module_report;  (** for the edited circuit *)
  reused : string list;
      (** methodologies answered from the previous report because every
          input they read was bit-for-bit unchanged *)
  recomputed : string list;
  stats_incremental : bool;
      (** the shared stats context was updated by delta rather than by
          rescanning the circuit *)
  stats : Mae_netlist.Stats.t;
      (** the edited circuit's statistics; feed back as
          [?previous_stats] when chaining edits *)
}

val reestimate :
  ?config:Mae.Config.t ->
  ?methods:string list ->
  ?cache:Mae_db.Cas.t ->
  ?previous_stats:Mae_netlist.Stats.t ->
  registry:Mae_tech.Registry.t ->
  previous:Mae.Driver.module_report ->
  edit ->
  (reestimate_report, error) result
(** Re-estimate [previous]'s module after [edit].

    The result is {e bit-for-bit identical} to a full
    {!Mae.Driver.run_circuit} on the edited circuit: statistics deltas
    extend the original float folds exactly ([Add_device] appends the
    new device's terms; add/remove of a floating net touches no float),
    and a methodology's previous outcome is reused only when a bitwise
    projection of everything it reads is unchanged.  [Remove_device]
    breaks fold associativity, so its statistics are recomputed in full;
    per-methodology reuse still applies.

    [?previous_stats] supplies the raw statistics of [previous.circuit]
    (e.g. from a prior {!reestimate_report}), making the stats update
    O(edit); omitted, they are recomputed.  Runs with [?config] recompute
    every methodology.  When [?cache] is given (and no config), the new
    report is stored under the edited circuit's content address. *)

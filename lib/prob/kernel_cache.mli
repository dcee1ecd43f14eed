(** Domain-safe memo tables for the estimator's probability kernels.

    The row-span expectation of equation (3) depends only on
    [(rows, degree)], and the feed-through expectation of equation
    (11) only on [(net_count, rows)], so a batch of modules re-derives
    the same handful of kernels thousands of times.  This cache
    computes each once and shares the rounded-up integer across
    circuits and across the domains of the batch engine
    ({!Mae_engine}).  The distributions behind them are computed
    afresh on every call and never retained, so a resident process
    keeps O(keys) words however large the circuits it has seen.

    Each table is one hash table behind one mutex.  A hit is a lookup
    under the lock.  A miss computes the (pure, deterministic) kernel
    outside the lock and inserts it under the lock.  Two domains racing
    on the same key may both compute it; the first insert wins, the
    loser's drop is counted as a race, and both callers receive a
    correct value.

    All entry points may be called concurrently from any number of
    domains. *)

type span_model = Paper | Exact
(** [Paper] is the equation-(2) exponent heuristic (k = min(n, D));
    [Exact] is the exact occupancy distribution via surjection counts.
    Mirrors [Mae.Config.row_span_model] without depending on it. *)

(** {1 Row-span distribution (equations 2-3)} *)

val row_span_dist_uncached :
  model:span_model -> rows:int -> degree:int -> Dist.t
(** Distribution of the number of rows spanned by a net with [degree]
    components over [rows] rows, computed afresh on every call.  Raises
    [Invalid_argument] if [rows < 1] or [degree < 1]. *)

val expected_span : model:span_model -> rows:int -> degree:int -> int
(** Equation (3): E(i) rounded up, i.e. [Dist.expectation_ceil] of
    {!row_span_dist_uncached}.  Cached. *)

(** {1 Feed-throughs (equations 9-11)} *)

val two_component_feed_prob : rows:int -> float
(** Equation (9): ((rows - 1) / rows)^2 / 2.  Pure arithmetic, never
    cached. *)

val feed_through_dist_uncached : net_count:int -> rows:int -> Dist.t
(** Equation (10): B(net_count, {!two_component_feed_prob}), computed
    afresh on every call. *)

val expected_feed_throughs : net_count:int -> rows:int -> int
(** Equation (11): E(M) rounded up, i.e. [Dist.expectation_ceil] of
    {!feed_through_dist_uncached}.  Cached. *)

(** {1 Generic tables}

    The same locked memo table, for other pure per-key computations
    that want to share [clear]/[set_enabled]/[stats] with the kernel
    tables (the gate-array shape search keys one by its small integer
    domain). *)

module Table : sig
  type ('k, 'v) t

  val create : unit -> ('k, 'v) t
  (** Create a table and register it with the cache-wide {!clear} and
      {!stats}.  Intended for a handful of module-initialization-time
      tables, not for dynamic creation: registered tables are never
      unregistered.  Keys are compared with structural equality and
      hashed with [Hashtbl.hash]. *)

  val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** Look the key up under the table's lock; on a miss, run the thunk
      outside the lock and insert the result unless a racing domain
      already did (the thunk must be pure).  When the cache is disabled
      ({!set_enabled}), always runs the thunk. *)
end

(** {1 Introspection and control} *)

type counts = { hits : int; misses : int; races : int }

val local_counts : unit -> counts
(** This domain's cumulative lookup counts, monotone over the domain's
    lifetime and untouched by {!clear}.  The batch engine reads them
    before and after a worker's run: the difference is exactly the
    worker's traffic, immune to concurrent batches on other domains. *)

type stats = { hits : int; misses : int; races : int; entries : int }

val stats : unit -> stats
(** Cumulative hit/miss/race counters (since start or last {!clear})
    and the current number of resident entries across all tables.
    [races] counts misses whose insert was dropped because another
    domain computed the same kernel concurrently.  The counters live in
    the {!Mae_obs.Metrics} registry as [mae_kernel_cache_hits_total],
    [mae_kernel_cache_misses_total] and [mae_kernel_cache_races_total],
    so a metrics dump sees the same numbers.  Every lookup adds to them
    as it happens, so they are exact even while other domains are
    mid-batch. *)

val clear : unit -> unit
(** Drop every entry and reset the counters.  Do not call concurrently
    with estimation work. *)

val set_enabled : bool -> unit
(** Benchmarking escape hatch: when disabled, every lookup recomputes
    and the tables are left untouched.  Flip only while no estimation
    is in flight. *)

val enabled : unit -> bool

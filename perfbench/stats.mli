(** The benchmark's own statistics: percentiles that say how many
    samples back them, self time from nested spans, the latency
    ladder's max-rate rule, and the sum check behind
    [trace.unattributed_frac].  Pure; no clocks, no I/O. *)

val quantile : float array -> int -> float
(** [quantile sorted pm]: nearest-rank quantile at [pm] per mille of an
    ascending, non-empty array (the smallest sample with at least
    [pm]/1000 of the samples at or below it).  Raises
    [Invalid_argument] on an empty array or [pm] outside [1, 1000]. *)

val percentile : float array -> int -> float
(** [percentile a pm]: {!quantile} of an unsorted array (a sorted copy
    is taken). *)

val median : float array -> float
(** Nearest-rank median of an unsorted, non-empty array. *)

val median_of_windows : windows:int -> float array -> float
(** Split the samples, in arrival order, into [windows] consecutive
    chunks of near-equal size and return the median of the chunk
    medians: a median that a burst of host noise confined to a few
    chunks cannot move.  Raises [Invalid_argument] when there are fewer
    samples than windows or [windows < 1]. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val beyond : int -> int -> int
(** [beyond n pm]: how many of [n] samples lie above the nearest-rank
    [pm] per-mille quantile. *)

val tail : ?min_beyond:int -> float array -> (int * float) option
(** The highest of p99.9, p99, p95, p90, p75 and p50 that has at least
    [min_beyond] (default 10) samples beyond it, as [(per_mille,
    value)]; [None] when even the median has fewer. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  rid : int;  (** request (or module) the span belongs to *)
  t0 : float;
  t1 : float;
}

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the part of its
    interval that its children cover (children clipped to the parent
    and overlaps counted once). *)

val self_by_name : span list -> (string * float) list
(** Self time summed per span name, names in first-seen order. *)

type rung = {
  rate : float;  (** offered requests per second *)
  latencies : float array;
      (** one per request sent; [infinity] for a failed, shed or
          unanswered request, so it counts as a miss *)
  backlog_end : int;  (** requests outstanding when sending stopped *)
  achieved : float;  (** answered requests per second of sending *)
}

val rung_p99 : rung -> float
(** Nearest-rank p99 of the rung's latencies ([infinity] when empty). *)

val rung_passes : limit:float -> rung -> bool
(** p99 under [limit] and a backlog that does not grow: at most
    [rate * limit] requests outstanding when sending stopped, i.e. no
    more than could still be answered within the limit. *)

val max_rate : limit:float -> rung list -> rung option
(** The ladder rule for [serve.max_rps]: among the measured rungs (any
    order), the highest-rate passing rung below the lowest-rate failing
    one.  [None] when no such rung was measured. *)

val unattributed : total:float -> float list -> float
(** [(total - sum parts) / total]: the share of an end-to-end figure
    that the per-layer parts leave unexplained (negative when they
    overshoot).  Raises [Invalid_argument] unless [total > 0]. *)

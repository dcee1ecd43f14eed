(** Mergeable, bounded-memory streaming quantile sketches
    (Greenwald–Khanna summaries).

    A sketch answers rank queries over everything it has observed with
    a proven bound: for a sketch created with error [eps], the value
    returned for quantile [q] has true rank within [eps * n] of
    [q * n] (plus one rank per merged summary, from integer rounding).
    Memory is [O((1/eps) * log(eps * n))] tuples regardless of stream
    length -- unlike a histogram there is no bucket-edge quantization,
    and unlike a sorted reservoir there is no sampling error.

    Concurrency: a sketch holds one sample buffer and one summary,
    guarded by one mutex.  {!observe} stores the sample under the lock
    and folds the buffer into the summary when it fills; reads fold the
    pending samples first, so every observation made before a read,
    from any domain, is in it.

    Observation cost is a lock and an array store.  A sketch carries
    no name: {!Metrics.summary} is the one way to make one that is
    exported, and {!Span.with_} is the one way to time into one. *)

type t

val create : ?eps:float -> unit -> t
(** A fresh, empty sketch, registered nowhere.  [eps] is the
    rank-error fraction (default [0.001], i.e. p99.9 resolved to one
    part in a thousand).  Raises [Invalid_argument] on [eps] outside
    (0, 0.5).  Only {!Metrics.summary} calls it. *)

val observe : t -> float -> unit
(** Record one sample; safe from any domain. *)

val observe_exemplar : t -> label:string -> float -> unit
(** {!observe}, additionally offering [(label, value)] as an exemplar:
    the sketch keeps the largest few labelled observations (e.g.
    request ids of the slowest requests) so /metrics can cross-link to
    /tracez.  Exemplar slots are global and racy-by-design; losing one
    under contention is acceptable. *)

val quantile : t -> float -> float option
(** [quantile t q] for [q] in [[0, 1]]: a value whose rank is within
    the advertised bound of [q * n].  [None] when empty. *)

val quantile_of_many : t list -> float -> float option
(** Pooled rank query over the union of several sketches' streams --
    used to answer "p99 GC pause across all domains" from the
    per-domain labelled sketches.  Same mergeable-summary bound,
    summed over members.  [None] when all are empty. *)

type snapshot = {
  n : int;  (** observed sample count *)
  sum : float;
  min_v : float;  (** [nan] when empty *)
  max_v : float;  (** [nan] when empty *)
  eps : float;
  quantiles : (float * float) list;  (** [(q, value)] pairs *)
  exemplars : (float * string * float) list;
      (** [(value, label, wall_ts)], largest first *)
  tuples : int;  (** resident summary tuples *)
}

val snapshot : ?qs:float list -> t -> snapshot
(** Current view of everything observed.  Default [qs] are
    [0.5; 0.9; 0.95; 0.99; 0.999]. *)

val rank_error_bound : t -> n:int -> domains:int -> float
(** The advertised worst-case rank error for a merged query:
    [eps * n + domains], where [domains] counts the summaries merged
    into the query (the additive term covers per-summary integer
    rounding; one sketch is one summary).  Property tests assert against exactly this. *)

val eps : t -> float

val reset : t -> unit
(** Drop the summary, pending samples and exemplars. *)

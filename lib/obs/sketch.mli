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

    Observation cost is a lock and an array store.  Latency call sites
    time through {!time}, which is gated on {!Control.enabled}. *)

type t

val create :
  ?help:string -> ?eps:float -> ?labels:(string * string) list -> string -> t
(** [create name] registers (or returns, idempotently) the sketch
    called [name].  [name] must match [mae_[a-z0-9_]*] -- same lint as
    {!Metrics}.  [eps] is the rank-error fraction (default [0.001],
    i.e. p99.9 resolved to one part in a thousand); omitting it on a
    re-registration accepts whatever the sketch was created with.
    [labels] attaches constant label pairs ([[("domain", "3")]]); the
    registry keys on (name, labels), so differently-labelled sketches
    with the same name form one Prometheus family whose series carry
    the labels (merged with the [quantile] label) and whose HELP/TYPE
    metadata is emitted once.  Label names must match
    [[a-z_][a-z0-9_]*] and values must not contain quotes,
    backslashes or newlines.
    Raises [Invalid_argument] on a bad name or label, [eps] outside
    (0, 0.5), or an explicit [eps] differing from the registered one. *)

val observe : t -> float -> unit
(** Record one sample; safe from any domain. *)

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk and observe its duration on the monotonic clock, on
    return and on an exception alike -- but only when
    {!Control.enabled}; otherwise one atomic read and a call of the
    thunk. *)

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

val name : t -> string

val labels : t -> (string * string) list
(** Constant labels this sketch was created with, sorted by name. *)

val eps : t -> float

val all : unit -> t list
(** Registered sketches, sorted by (name, labels). *)

val reset : t -> unit
(** Drop the summary, pending samples and exemplars. *)

val to_prometheus : unit -> string
(** Prometheus [summary]-typed exposition for every registered
    sketch, with exemplars as trailing comment lines.  Appended to
    {!Metrics.to_prometheus} output via the exposition hook. *)

val to_json_body : unit -> string
(** The sketches section as a JSON object body:
    [{"name": {"count": .., "quantiles": {..}, ..}, ..}]. *)

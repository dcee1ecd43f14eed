(** Content-addressed estimate store.

    Keys digest everything that determines an estimate: the canonical
    circuit text ({!Mae_netlist.Canonical} -- structure, not
    construction order), the process fingerprint
    ({!Mae_tech.Process.fingerprint}), the methodology registry version
    ({!Mae.Methodology.registry_version}) and the resolved method-name
    set.  Invalidation is by construction: retuning a process, changing
    the registry, or bumping its epoch changes every key, so stale
    entries are simply never looked up again.

    An entry keeps only what an answer needs: the module name and
    technology, the resolved method results, and the device/net/port
    counts of a {!Record}.  A hit rebuilds the
    {!Mae.Driver.module_report} around the caller's own circuit and
    process: [results] are bit-for-bit as first computed, [issues] is
    [[]] and [expanded] is [None] (neither is part of a serve answer,
    and pinning them cost ~30k words per entry).  Journal replay
    inserts the same entries through the same LRU cap.  Thread-safe;
    lookups count into the [mae_estimate_cache_{hits,misses}_total]
    metrics. *)

type t

val create : ?live_cap:int -> unit -> t
(** [?live_cap] bounds the number of entries: past the cap the
    least-recently-used entry is evicted and counted into
    [mae_estimate_cache_evictions_total].  Recency is updated on hit,
    insert and journal replay.  Omitted means unbounded.  Raises
    [Invalid_argument] on a cap below 1. *)

val key :
  ?methods:string list ->
  process:Mae_tech.Process.t ->
  Mae_netlist.Circuit.t ->
  string
(** The content address of (circuit, process, registry, methods).
    [?methods] must be the {e resolved} method-name list (default
    {!Mae.Methodology.default_names}); aliases like ["default"] must be
    expanded by the caller so equal selections key equal. *)

val find :
  t ->
  key:string ->
  circuit:Mae_netlist.Circuit.t ->
  process:Mae_tech.Process.t ->
  Mae.Driver.module_report option
(** Lookup, counting a hit or miss.  [circuit] and [process] must be
    the pair the key was computed from; a hit's report holds them
    physically.  An entry whose module name or technology differs from
    [circuit]'s misses. *)

val store : t -> key:string -> Mae.Driver.module_report -> unit
(** Insert (first write wins) and append to the journal when one is
    open.  A journal write failure disables persistence but never
    estimation. *)

val length : t -> int
(** Entries currently held, stored and journal-replayed alike. *)

val hit_count : unit -> int
(** Process-wide value of [mae_estimate_cache_hits_total]. *)

val miss_count : unit -> int

val eviction_count : unit -> int
(** Process-wide value of [mae_estimate_cache_evictions_total]. *)

val open_journal : t -> path:string -> (int * int, string) result
(** Replay [path] (created if absent) into the store, oldest entry
    first and through the LRU cap, then keep it open for appends.
    Returns [(loaded, skipped)]: malformed blocks -- e.g. a tail torn by
    a crash mid-append, or an entry naming a methodology that is no
    longer registered -- are skipped (a skip is just a future miss),
    parsing resyncs at the next entry header.  Entries evicted by the
    cap during replay count as loaded and as evictions.  [Error] only
    on I/O failure. *)

val close_journal : t -> unit

val to_store : t -> Store.t
(** Flatten the entries into a floor-planner {!Store} snapshot.
    Entries whose method set cannot feed a {!Record} (narrower than the
    default set) are omitted, as are journal-replayed entries not yet
    hit: the journal does not carry the circuit counts, and the first
    hit learns them from the caller's circuit. *)

(** A table capped by least-recent use.

    One hash table, with an intrusive doubly-linked recency list through
    its entries: the head is the most recently touched entry, the tail
    the eviction victim.  Finding or adding a key makes it the most
    recent; past the cap the tail is dropped.  Not thread-safe: the
    caller serialises access. *)

type ('k, 'v) t

val create : ?cap:int -> int -> ('k, 'v) t
(** [create ?cap size]: an empty table whose hash table starts at
    [size] buckets.  [?cap] bounds the number of entries; omitted means
    unbounded.  Raises [Invalid_argument] on a cap below 1. *)

val cap : ('k, 'v) t -> int option

val find : ('k, 'v) t -> 'k -> 'v option
(** The value under the key, made most recent. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Whether the key is held; recency is unchanged. *)

val add : ('k, 'v) t -> 'k -> 'v -> int
(** Bind the key, replacing any value it held, and make it most recent;
    then drop least-recent entries past the cap.  Returns how many were
    dropped. *)

val length : ('k, 'v) t -> int

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

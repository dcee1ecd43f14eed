(** A read-only view of {!Occupancy.table} for the benchmark harness
    under perfbench/, which reads it through these names.  Nothing else
    uses it.  The next change allowed to edit perfbench/ deletes this
    module, together with the [prob.kernel_*] metrics it feeds. *)

type stats = { hits : int; misses : int; races : int; entries : int }

val stats : unit -> stats
(** [entries] is the number of filled cells of {!Occupancy.table};
    [hits], [misses] and [races] are always [0]. *)

val clear : unit -> unit
(** Empty {!Occupancy.table}, so the next run starts cold. *)

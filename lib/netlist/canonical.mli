(** Canonical circuit serialization and digest.

    The estimate store (Cas, in lib/db) keys results by content: two
    structurally identical circuits -- same name, technology, devices,
    nets, ports and pin connectivity -- must produce the same key
    regardless of the order their builders created nets and devices in.
    This module renders a circuit into a normal form (devices, nets and
    ports sorted by name; pins referencing nets by name in pin order)
    and digests it. *)

val to_string : Circuit.t -> string
(** The canonical text.  Deterministic and construction-order
    independent; names are quoted so adversarial names cannot collide
    two different circuits onto one rendering. *)

val digest : Circuit.t -> string
(** Hex MD5 of {!to_string}.  Equal for structurally identical circuits;
    any structural mutation (adding/removing a device or net, rewiring a
    pin, renaming, changing a port direction) changes it. *)

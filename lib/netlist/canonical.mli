(** Canonical circuit serialization and digest.

    The estimate store (Cas, in lib/db) keys results by content: two
    structurally identical circuits -- same name, technology, devices,
    nets, ports and pin connectivity -- must produce the same key
    regardless of the order their builders created nets and devices in.
    This module renders a circuit into a normal form (nets, devices and
    ports sorted by name; pins referencing nets by their rank in the
    sorted net list) and digests it. *)

val to_string : Circuit.t -> string
(** The canonical stream, headed ["mae-canonical 2\n"]: the circuit
    name and technology, the net names in sorted order, each device in
    name order as name, kind, pin count and one net rank per pin, then
    each port in name order as name, direction and net rank.
    Deterministic and construction-order independent.  Every string
    carries its length and every list its count, as 4-byte
    little-endian integers, so the stream splits back into its fields
    and adversarial names cannot collide two different circuits onto
    one rendering.  Binary: not meant to be read or printed. *)

val digest : Circuit.t -> string
(** Hex MD5 of {!to_string}.  Equal for structurally identical circuits;
    any structural mutation (adding/removing a device or net, rewiring a
    pin, renaming, changing a port direction) changes it. *)

(** Expansion of a gate-level schematic into a transistor-level one.

    Section 4.2 estimates full-custom area at the transistor level
    ("individual transistor layouts are used as Standard-Cells"), so a
    gate-level schematic must be flattened before full-custom estimation.
    Instance [x1] of a cell with internal net [m] produces devices
    [x1.pd0], ... and nets [x1.m]. *)

type error =
  | Unknown_cell of { device : string; kind : string }
      (** the library has no template for this device kind *)

val pp_error : Format.formatter -> error -> unit

val circuit :
  ?include_supplies:bool ->
  Library.t ->
  Mae_netlist.Circuit.t ->
  (Mae_netlist.Circuit.t, error) result
(** Flatten every device through its library template.  Devices whose kind
    is already a transistor in the library's processes should not appear in
    the input; any kind missing from the library is an error.

    When [include_supplies] is false (the default) the VDD and GND rails
    are omitted from the result: supply rails are routed as planned power
    buses, not as signal wiring, and would otherwise dominate the net
    degree histogram that drives the estimator.  Pass [true] to keep them
    as nets named [vdd!] and [gnd!].

    Transistors come out in device order, then template order.  Nets are
    numbered in the order their first terminal is wired (drain, gate,
    source), then any port net no transistor touched.  A device with
    fewer pins than its cell gets a private net [<device>.unconnected<i>]
    on each missing pin [i].

    Names are built, never looked up: transistor [t] of device [d] is
    [d.t] and its private net [m] is [d.m].  {!Cell.make} refuses a
    dotted transistor or internal net and an internal net named
    [unconnected<digits>], so a built name splits at its last dot into
    one device and one suffix, and no two built names are equal.  The
    one lookup left keeps names that coincide as one net: a schematic
    net whose name has a dot, or is [vdd!] or [gnd!], is found by name
    when a private net or rail is first wired ([g1.n1] and instance
    [g1]'s internal net [n1] are one net, and so are a schematic net
    [vdd!] and the rail).  The result is built by
    [Mae_netlist.Circuit.of_distinct_arrays].  The estimate path never
    builds it: full-custom estimation reads {!stats}. *)

val stats :
  Library.t ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  (Mae_netlist.Stats.t, error) result
(** [Mae_netlist.Stats.compute (circuit library c) process], bit for bit
    and per-net terms included, without building the expansion: one
    walk over the devices' cell wirings numbers the nets as {!circuit}
    does (the same function does both) and folds each transistor's kind
    into the statistics in transistor order.  No transistor, net or
    name is made, except a private net's name when the schematic has a
    net it may merge with.  Supply rails are left out, as {!circuit}
    leaves them by default.  Errors like {!circuit}; raises
    [Mae_netlist.Stats.Unknown_kind] on the first transistor, in order,
    whose kind the process does not define. *)

val transistor_count : Library.t -> Mae_netlist.Circuit.t -> (int, error) result
(** Total transistors the expansion would produce, without building it. *)

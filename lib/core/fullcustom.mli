(** The Full-Custom area estimator (section 4.2, equation 13).

    Device area is summed from the schematic (exactly, or via the average
    device footprint); each net's minimum interconnection area uses the
    two-row, one-track-channel model: the net's components split into two
    facing rows of ceil(D/2) devices, and the channel between them is one
    track high and one half-row long.  Per the Table 1 footnote, nets with
    two or fewer components contribute nothing (the two devices abut). *)

type net_area = {
  net : int;  (** net index in the circuit *)
  degree : int;  (** D, distinct devices on the net *)
  interconnect_area : Mae_geom.Lambda.area;  (** the A_j of equation (13) *)
}

val net_areas :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  mode:Config.device_area_mode ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  net_area list
(** Per-net interconnect areas, net index ascending.  In [Exact_areas]
    mode the half-row length uses the mean width of the devices actually
    on the net; in [Average_areas] mode it uses the module-wide W_avg.
    [stats], when given, must be [Stats.compute circuit process].
    Raises {!Mae_netlist.Stats.Unknown_kind}. *)

type ledger = {
  device_area : Mae_geom.Lambda.area;
      (** exact sum, or N * W_avg * h_avg in [Average_areas] mode *)
  nets : net_area list;  (** {!net_areas}, net index ascending *)
}

val ledger :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  mode:Config.device_area_mode ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  ledger
(** Every equation (13) term.  Raises like {!estimate}. *)

val pp_ledger : Format.formatter -> ledger -> unit
(** The breakdown behind [mae estimate --verbose]: the device area, the
    count of free nets and each charged net by descending area. *)

val estimate :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  mode:Config.device_area_mode ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  Estimate.fullcustom
(** Equation (13) plus the section 5 aspect-ratio algorithm: area =
    the {!ledger}'s [device_area] plus its net areas, folded in net
    index order.  Raises
    {!Mae_netlist.Stats.Unknown_kind} and [Invalid_argument] on an empty
    circuit. *)

val estimate_both :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  Estimate.fullcustom * Estimate.fullcustom
(** (exact, average): the two variants Table 1 reports side by side.
    The circuit statistics are computed once and shared by both. *)

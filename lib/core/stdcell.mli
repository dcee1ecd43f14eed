(** The Standard-Cell area estimator (section 4.1, equations 1-12, 14).

    Module height = n rows plus the expected routing tracks (one net per
    track: an upper bound); module width = the average cell content of a
    row plus the expected feed-throughs of the central, most-loaded row.

    Every term is computed once, by {!ledger}; {!estimate} adds and
    multiplies the ledger's entries and nothing else. *)

type ledger = {
  rows : int;  (** n *)
  classes : Row_model.track_class list;
      (** equations (2)-(3), one per degree D with y_D > 0, D ascending *)
  tracks_upper_bound : int;  (** sum of the classes' tracks *)
  sharing : float option;  (** the section 7 scale, when configured *)
  tracks : int;
      (** [tracks_upper_bound], or [max 1 (ceil (upper_bound * f))] under
          sharing [f] *)
  feed_probability : float;  (** equation (9) *)
  feed_throughs : int;
      (** E(M), equation (11), over the classes' nets (H) *)
  cell_height : Mae_geom.Lambda.t;  (** n * row_height *)
  track_height : Mae_geom.Lambda.t;  (** tracks * track_pitch *)
  cell_width : Mae_geom.Lambda.t;  (** N * W_avg / n *)
  feed_width : Mae_geom.Lambda.t;  (** E(M) * feed_through_width *)
}

val ledger :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  rows:int ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  ledger
(** Every section 4.1 term at a fixed row count.  Raises like
    {!estimate}. *)

val pp_ledger : Format.formatter -> ledger -> unit
(** The breakdown behind [mae estimate --verbose]. *)

val estimate :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  rows:int ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  Estimate.stdcell
(** Equation (12) for a fixed row count: height = [cell_height +
    track_height] and width = [cell_width + feed_width] of the
    {!ledger}.  [stats], when given, must be [Stats.compute circuit
    process]; passing it lets batch callers and sweeps share one
    computation.  Raises
    {!Mae_netlist.Stats.Unknown_kind} on a schematic/process mismatch and
    [Invalid_argument] when [rows < 1] or the circuit has no devices. *)

val estimate_auto :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  Estimate.stdcell
(** {!estimate} at the row count chosen by {!Row_select.initial_rows}. *)

val sweep :
  ?config:Config.t ->
  ?stats:Mae_netlist.Stats.t ->
  rows:int list ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  Estimate.stdcell list
(** One estimate per row count, in the given order (the Table 2 sweep).
    The circuit statistics are computed once and shared by every entry. *)

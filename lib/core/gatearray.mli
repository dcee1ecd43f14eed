(** Gate-array area estimation ({e extension}).

    The paper names three popular methodologies — Full-Custom,
    Standard-Cell and Gate Array — and covers the first two; this module
    supplies the third so the methodology comparison of the introduction
    can run over all of them.  A gate array is a prediffused matrix of
    identical transistor sites with fixed routing channels: logic maps
    onto sites (a site holds a few transistors), so area is determined by
    the site count and the fixed channel capacity, not by a routing
    estimate.  Routability is the question instead — answered here with
    the paper's own equations (2)-(3) track model. *)

type params = {
  site_transistors : int;  (** transistor capacity of one site *)
  site_width : Mae_geom.Lambda.t;
  site_height : Mae_geom.Lambda.t;
  channel_tracks : int;  (** prediffused tracks in each inter-row channel *)
  utilization : float;  (** achievable fraction of sites, in (0, 1] *)
}

val default_params : Mae_tech.Process.t -> params
(** Sites shaped like the process's [nand2] cell (4 transistors), 10
    prediffused tracks per channel, 85 % utilization.  Raises [Not_found]
    if the process has no [nand2]. *)

val validate_params : params -> (params, string) result

type estimate = {
  gate_equivalents : int;  (** sites the logic demands *)
  sites : int;  (** sites provided (demand / utilization, rounded up) *)
  array_rows : int;
  array_columns : int;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
  area : Mae_geom.Lambda.area;
  aspect : Mae_geom.Aspect.t;
  expected_tracks_per_channel : float;
      (** the paper's expected track total spread over the array's
          channels *)
  routable : bool;
      (** expected tracks fit the prediffused channel capacity *)
}

val site_demand :
  ?params:params -> Mae_netlist.Circuit.t -> Mae_tech.Process.t -> (int, string) result
(** Sites demanded: transistors map 1-to-1, gates through their library
    template's transistor count, [ceil(tx / site_transistors)] sites per
    device.  Errors when a kind has neither a footprint nor a template. *)

val estimate :
  ?params:params ->
  ?stats:Mae_netlist.Stats.t ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  (estimate, string) result
(** Square-ish array sizing: the row count minimizing the bounding box's
    deviation from 1:1 given the fixed per-row channel.  Raises nothing;
    all failures are [Error].  Pass [?stats] to reuse statistics already
    computed for the circuit, as {!Stdcell.estimate} and
    {!Fullcustom.estimate} do; they are computed on demand otherwise. *)

val estimate_routable :
  ?params:params ->
  ?stats:Mae_netlist.Stats.t ->
  ?max_growth:int ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  (estimate, string) result
(** Master selection: like {!estimate}, but when the expected channel
    demand exceeds the prediffused capacity, grow the array (more rows =
    more channels, at the cost of wasted sites) until it routes, up to
    [max_growth] (default 8) doublings of the row count.  Errors if no
    routable master exists within the growth budget. *)

type ledger = {
  params : params;
  row_pitch : Mae_geom.Lambda.t;
      (** site height plus the prediffused channel's tracks *)
  classes : Row_model.track_class list;
      (** equations (2)-(3) at the array's row count, one per degree D
          with y_D > 0, D ascending *)
  tracks : int;  (** the classes' tracks summed, over every channel *)
  estimate : estimate;  (** what the terms above add up to *)
}
(** Every term behind an {!estimate} at one row count. *)

val ledger :
  rows:int ->
  Mae_netlist.Circuit.t ->
  Mae_tech.Process.t ->
  (ledger, string) result
(** The terms of the array at [rows] rows under {!default_params}: its
    [estimate] is the one {!estimate} or {!estimate_routable} returns
    with default params when it settles on [rows], bit for bit (both
    build it through this function's sizing and row model).  Errors like
    {!estimate}, and on [rows < 1]. *)

val pp_ledger : Format.formatter -> ledger -> unit
(** The breakdown behind [mae estimate --verbose]: sites, the track
    classes, the per-channel demand against capacity, and the array's
    width and height. *)

val pp_estimate : Format.formatter -> estimate -> unit

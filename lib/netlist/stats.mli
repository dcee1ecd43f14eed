(** Scans a circuit schematic for the quantities the estimator consumes.

    These are exactly the parameters listed in section 4 of the paper:
    N (devices), H (nets), W_i and X_i (distinct device widths and their
    multiplicities), W_avg (equation 1), and y_i (the net-degree
    histogram). *)

exception Unknown_kind of string
(** Raised when a device's kind is not present in the process. *)

type t = {
  device_count : int;  (** N *)
  net_count : int;  (** H *)
  port_count : int;
  width_classes : (Mae_geom.Lambda.t * int) list;
      (** (W_i, X_i) pairs, widths ascending: X_i devices share width W_i *)
  average_width : Mae_geom.Lambda.t;  (** W_avg, equation (1) *)
  average_height : Mae_geom.Lambda.t;  (** h_avg, used by equation (13) *)
  total_device_area : Mae_geom.Lambda.area;
      (** sum of exact device areas ("active cell area") *)
  degree_histogram : (int * int) list;
      (** (D, y_D) pairs, D ascending: y_D nets have exactly D components;
          only nets with D >= 1 appear *)
  max_degree : int;  (** 0 for a circuit with no connected nets *)
}

val compute : Circuit.t -> Mae_tech.Process.t -> t
(** Raises {!Unknown_kind} when the schematic references a device kind the
    process does not define. *)

val ensure : ?stats:t -> Circuit.t -> Mae_tech.Process.t -> t
(** [stats] when given (it must be [compute circuit process]), else
    [compute circuit process]: the default behind every estimator's
    [?stats] argument. *)

val device_widths : Circuit.t -> Mae_tech.Process.t -> Mae_geom.Lambda.t array
(** Per-device width, indexed by device index.  Raises {!Unknown_kind}. *)

val device_areas : Circuit.t -> Mae_tech.Process.t -> Mae_geom.Lambda.area array
(** Per-device exact area.  Raises {!Unknown_kind}. *)

val pp : Format.formatter -> t -> unit

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
  net_degrees : int array;
      (** D of each net, in net order (length H): the distinct devices on
          it, 0 for a net nothing wires *)
  net_widths : Mae_geom.Lambda.t array;
      (** each net's member widths summed from 0 in ascending device
          order, in net order (length H): the numerator of equation
          (13)'s exact mean width *)
}

val compute : Circuit.t -> Mae_tech.Process.t -> t
(** Raises {!Unknown_kind} when the schematic references a device kind the
    process does not define. *)

(** {1 Building statistics without a circuit}

    A producer that never builds the circuit (the expansion walk in
    [Mae_celllib.Expand.stats]) feeds the same folds {!compute} runs:
    every device's kind, in device order, then the per-net terms.  The
    result is then bit-for-bit what {!compute} returns on the circuit
    those devices and nets would make. *)

type tally
(** The device-order folds: count, width, height and area sums, and the
    width classes. *)

val tally : unit -> tally

val add : tally -> Mae_tech.Device_kind.t -> unit
(** Fold the next device, in device order. *)

val finish :
  tally -> net_degrees:int array -> net_widths:Mae_geom.Lambda.t array ->
  port_count:int -> t
(** The statistics of the devices added, with the given per-net terms
    (as the fields of the same names; H is their length).  The arrays
    become the result's own. *)

val resolver : Mae_tech.Process.t -> string -> Mae_tech.Device_kind.t option
(** [resolver process] looks kinds up in [process], each distinct kind
    string once per resolver; a string seen before is matched by
    physical equality first.  [None] for a kind the process does not
    define. *)

val ensure : ?stats:t -> Circuit.t -> Mae_tech.Process.t -> t
(** [stats] when given (it must be [compute circuit process]), else
    [compute circuit process]: the default behind every estimator's
    [?stats] argument. *)

val device_kinds :
  Circuit.t -> Mae_tech.Process.t -> Mae_tech.Device_kind.t option array
(** Each device's kind record, indexed by device index, [None] where the
    process does not define the kind.  Each distinct kind string is
    looked up in the process once per call; the devices whose kind
    strings are equal share one [Some] block. *)

val device_widths : Circuit.t -> Mae_tech.Process.t -> Mae_geom.Lambda.t array
(** Per-device width, indexed by device index.  Raises {!Unknown_kind}. *)

val pp : Format.formatter -> t -> unit

(** A fabrication process description (Figure 1's "Fabrication Process Data
    Base").

    Multiple processes may be loaded at once (see {!Registry}); the paper
    emphasizes that the estimator "deals with different chip fabrication
    technologies (e.g., CMOS and nMOS) and can easily be adjusted to cope
    with new chip fabrication processes". *)

type t = private {
  name : string;
  lambda_microns : float;  (** physical size of one lambda *)
  row_height : Mae_geom.Lambda.t;
      (** height of a standard-cell row (all cells share it) *)
  track_pitch : Mae_geom.Lambda.t;
      (** centre-to-centre spacing of routing tracks in a channel *)
  feed_through_width : Mae_geom.Lambda.t;
      (** width of the feed-through cell, the paper's [f-w] *)
  port_pitch : Mae_geom.Lambda.t;
      (** edge length consumed by one I/O port (pad pitch along a module
          edge); converts a port count into the port length of section 5 *)
  min_spacing : Mae_geom.Lambda.t;
      (** minimum spacing between adjacent devices in full-custom rows *)
  devices : Device_kind.t list;
  device_index : (string * Device_kind.t) array;
      (** the same kinds sorted by name, built at construction and read
          by {!find_device}'s binary search -- name lookups run once per
          device per module, so they must not scan [devices].  Treat as
          frozen: reads are domain-safe only because nothing mutates it. *)
  mutable fingerprint : string;
      (** {!fingerprint}'s value once it has been asked for, [""]
          before ({!make} and {!with_devices} leave it empty): read it
          through {!fingerprint}.  The type is private, so only this
          module sets it. *)
}

val make :
  name:string ->
  lambda_microns:float ->
  row_height:Mae_geom.Lambda.t ->
  track_pitch:Mae_geom.Lambda.t ->
  feed_through_width:Mae_geom.Lambda.t ->
  port_pitch:Mae_geom.Lambda.t ->
  min_spacing:Mae_geom.Lambda.t ->
  devices:Device_kind.t list ->
  t
(** Validates positivity of all extents and uniqueness of device-kind
    names; raises [Invalid_argument] otherwise. *)

val find_device : t -> string -> Device_kind.t option
(** Binary search over [device_index]: O(log kinds) with no
    allocation. *)

val find_device_exn : t -> string -> Device_kind.t
(** Raises [Not_found]. *)

val device_area : t -> string -> Mae_geom.Lambda.area option

val with_devices : t -> Device_kind.t list -> t
(** Replace the device table (used when a cell library contributes kinds). *)

val fingerprint : t -> string
(** Hex digest of every parameter that can influence an estimate: the
    scalar extents (rendered as exact hex floats) plus each device
    kind's name, category and geometry, sorted by kind name, with each
    name quoted by [%S] so two processes cannot render alike.  Always
    32 hex characters: the store key places it between length-prefixed
    and fixed-width fields with no separator, and the fixed width is
    what keeps that concatenation unambiguous.  Rendered on the first
    call and kept in the [fingerprint] field.  The estimate store folds
    this into its keys, so retuning a process invalidates stored
    results by construction. *)

val pp : Format.formatter -> t -> unit

(** An elaborated circuit schematic: the "mathematical representation for
    numerical analysis" of section 3.

    A circuit is immutable once built (use {!Builder}); net-to-device
    connectivity is precomputed. *)

type t = private {
  name : string;
  technology : string;  (** process name the schematic targets *)
  devices : Device.t array;
  nets : Net.t array;
  ports : Port.t array;
  net_devices : int array array;
      (** [net_devices.(n)] = distinct device indices on net [n], ascending *)
}

val make :
  name:string ->
  technology:string ->
  devices:Device.t list ->
  nets:Net.t list ->
  ports:Port.t list ->
  t
(** Validates: device/net indices are dense and match positions, pin and
    port net references are in range, instance and net names are unique.
    Raises [Invalid_argument] otherwise.  Linear in the pin count. *)

val of_arrays :
  name:string ->
  technology:string ->
  devices:Device.t array ->
  nets:Net.t array ->
  ports:Port.t array ->
  t
(** {!make} on arrays, with the same checks and messages.  The arrays
    become the circuit's own: the caller must not mutate them after. *)

val of_distinct_arrays :
  name:string ->
  technology:string ->
  devices:Device.t array ->
  nets:Net.t array ->
  ports:Port.t array ->
  t
(** {!of_arrays} without its three name tables: every other check runs,
    with the same messages, but the caller vouches that device names,
    net names and port names are each distinct.  Only a producer that
    knows this by construction may call it: [Mae_hdl.Elaborate]'s
    stamp bits and interned ids, and [Mae_celllib.Expand]'s built
    names.  [of_arrays] on the same arrays returns an [=] circuit. *)

val device_count : t -> int
(** The paper's N. *)

val net_count : t -> int
(** The paper's H. *)

val port_count : t -> int

val degree : t -> int -> int
(** [degree c n]: number of distinct devices on net [n] — the paper's D.
    Raises [Invalid_argument] if [n] is out of range. *)

val devices_on_net : t -> int -> int array
(** Distinct device indices, ascending.  Raises [Invalid_argument] if out
    of range. *)

val nets_of_device : t -> int -> int list
(** Distinct net indices, ascending. *)

val find_net : t -> string -> Net.t option

val find_device : t -> string -> Device.t option

val is_port_net : t -> int -> bool

val pp_summary : Format.formatter -> t -> unit
(** One-line "name: N devices, H nets, P ports (tech)". *)

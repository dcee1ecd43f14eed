(** A standard-cell definition.

    A cell couples a device kind (whose footprint lives in the process
    database) with its logical pin list and a transistor-level template.
    The template is what lets the same schematic be estimated under both
    methodologies: the Standard-Cell estimator works on gate instances,
    while the Full-Custom estimator works on the expanded transistor
    network (section 4.2 "individual transistor layouts are used as
    Standard-Cells"). *)

type pin_role = Input | Output

type terminal =
  | Pin of int  (** index into the cell's pin list *)
  | Internal of string  (** a net private to the cell instance *)
  | Vdd
  | Gnd

type transistor = {
  name : string;  (** suffix for the expanded instance name *)
  kind : string;  (** transistor device kind in the process *)
  drain : terminal;
  gate : terminal;
  source : terminal;
}

(** A cell's transistor template with every terminal an integer, so an
    expansion wires an instance by array index rather than by name.
    Terminal codes: [0 .. pin_count - 1] is that cell pin, [pin_count + k]
    is internal net [internal_nets.(k)], and {!vdd_terminal} /
    {!gnd_terminal} are the rails.  A cell pin past an instance's own pin
    list, and each internal net, is one of the instance's private slots
    (numbered by terminal code, [0 .. slot_count - 1]). *)
type wiring = private {
  pin_count : int;
  tx_names : string array;
  tx_kinds : string array;
  terminals : int array;
      (** drain, gate, source of transistor [i] at [3i .. 3i + 2] *)
  internal_nets : string array;  (** in order of first use *)
}

type t = private {
  name : string;  (** also the device-kind name of the gate *)
  pins : (string * pin_role) list;
      (** pin order matches HDL instantiation: inputs first, outputs last *)
  transistors : transistor list;
  wiring : wiring;  (** [transistors] by terminal code, made once by {!make} *)
}

val make : name:string -> pins:(string * pin_role) list -> transistors:transistor list -> t
(** Validates pin indices in templates and uniqueness of transistor names;
    raises [Invalid_argument] otherwise.  Also refused: an empty
    internal net, a transistor or internal net whose name contains [.],
    and an internal net named [unconnected<digits>].  These make every
    name {!Expand} builds unique without a lookup: [d ^ "." ^ s] with a
    dot-free [s] splits at its last dot, so two built names agree only
    when their devices and suffixes do, and no internal net is named
    like the private net of a pin an instance leaves off. *)

val pin_count : t -> int

val vdd_terminal : int

val gnd_terminal : int

val slot_count : wiring -> int

val input_count : t -> int

val transistor_count : t -> int

val pp : Format.formatter -> t -> unit

(** Elaboration: parsed HDL modules to {!Mae_netlist.Circuit.t}s.

    This is the paper's "input interface" step (Figure 1): the circuit
    schematic is translated into the mathematical representation the
    estimators analyze.

    A module is read in its {!Ast} id form: {!module_to_circuit} maps
    identifier ids to net indices with an int array and finds a repeated
    device or port name by a stamp bit per id and namespace, so it
    hashes no name.  Distinct ids are distinct names, so the result is
    built by {!Mae_netlist.Circuit.of_distinct_arrays}, which runs every
    check of [of_arrays] but its name tables.  Nets, devices and ports
    are numbered in item order, nets on first mention. *)

type error =
  | Duplicate_name of { module_name : string; what : string; name : string }
  | No_technology of { module_name : string }
  | Module_not_found of string
  | Recursive_module of string
      (** a module (transitively) instantiates itself *)
  | Port_arity of {
      module_name : string;
      instance : string;
      expected : int;
      got : int;
    }  (** an instance's pin count differs from the child's port count *)

val pp_error : Format.formatter -> error -> unit

val module_to_circuit :
  ?default_technology:string ->
  Ast.module_decl ->
  (Mae_netlist.Circuit.t, error) result
(** The module's last [technology] item wins over [default_technology];
    if neither exists the result is [No_technology].  Each port
    implicitly names its net (a port [a] connects to net [a]).  Of two
    devices or two ports with one name, the second is a
    [Duplicate_name]; a device and a net, or a port and a device, may
    share a name. *)

val design_to_circuits :
  ?default_technology:string ->
  Ast.design ->
  (Mae_netlist.Circuit.t list, error) result
(** Elaborates every module; stops at the first error. *)

val find_module :
  ?default_technology:string ->
  Ast.design ->
  name:string ->
  (Mae_netlist.Circuit.t, error) result

val flatten :
  ?default_technology:string ->
  Ast.design ->
  top:string ->
  (Mae_netlist.Circuit.t, error) result
(** Hierarchical elaboration: inside any module, a device whose kind names
    another module of the design instantiates it.  The instance's pins
    bind positionally to the child's ports (in declaration order); the
    child's other nets and devices are copied in with an
    ["instance."]-prefixed name.  The result is the fully flattened top
    module, in the top's technology.  Errors on recursive instantiation
    and pin/port arity mismatches. *)

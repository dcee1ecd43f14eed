type pin_role = Input | Output

type terminal =
  | Pin of int
  | Internal of string
  | Vdd
  | Gnd

type transistor = {
  name : string;
  kind : string;
  drain : terminal;
  gate : terminal;
  source : terminal;
}

type wiring = {
  pin_count : int;
  tx_names : string array;
  tx_kinds : string array;
  terminals : int array;
  internal_nets : string array;
}

type t = {
  name : string;
  pins : (string * pin_role) list;
  transistors : transistor list;
  wiring : wiring;
}

(* [unconnected<digits>]: the name Expand gives a pin an instance
   leaves off. *)
let is_unconnected_name name =
  let p = String.length "unconnected" in
  String.length name > p
  && String.starts_with ~prefix:"unconnected" name
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub name p (String.length name - p))

let check_terminal cell_name pin_count = function
  | Pin i ->
      if i < 0 || i >= pin_count then
        invalid_arg
          (Printf.sprintf "Cell.make: %s references pin %d of %d" cell_name i
             pin_count)
  | Internal name ->
      if String.length name = 0 then
        invalid_arg (Printf.sprintf "Cell.make: %s has empty internal net" cell_name);
      if String.contains name '.' then
        invalid_arg
          (Printf.sprintf "Cell.make: %s has dotted internal net %s" cell_name name);
      if is_unconnected_name name then
        invalid_arg
          (Printf.sprintf "Cell.make: %s has internal net %s, an unconnected-pin name"
             cell_name name)
  | Vdd | Gnd -> ()

let vdd_terminal = -1

let gnd_terminal = -2

let wiring pin_count transistors =
  let internal = Mae_netlist.Intern.create 8 in
  let code = function
    | Pin i -> i
    | Vdd -> vdd_terminal
    | Gnd -> gnd_terminal
    | Internal n -> pin_count + Mae_netlist.Intern.intern internal n
  in
  let txs = Array.of_list transistors in
  let terminals =
    Array.concat
      (List.map
         (fun (tx : transistor) -> [| code tx.drain; code tx.gate; code tx.source |])
         transistors)
  in
  {
    pin_count;
    tx_names = Array.map (fun (tx : transistor) -> tx.name) txs;
    tx_kinds = Array.map (fun (tx : transistor) -> tx.kind) txs;
    terminals;
    internal_nets = Mae_netlist.Intern.names internal;
  }

let make ~name ~pins ~transistors =
  if String.length name = 0 then invalid_arg "Cell.make: empty name";
  let pin_count = List.length pins in
  let seen = Mae_netlist.Intern.create 8 in
  List.iter
    (fun (tx : transistor) ->
      if not (Mae_netlist.Intern.fresh seen tx.name) then
        invalid_arg
          (Printf.sprintf "Cell.make: %s has duplicate transistor %s" name tx.name);
      if String.contains tx.name '.' then
        invalid_arg
          (Printf.sprintf "Cell.make: %s has dotted transistor %s" name tx.name);
      check_terminal name pin_count tx.drain;
      check_terminal name pin_count tx.gate;
      check_terminal name pin_count tx.source)
    transistors;
  { name; pins; transistors; wiring = wiring pin_count transistors }

let pin_count t = List.length t.pins

let slot_count w = w.pin_count + Array.length w.internal_nets

let input_count t =
  List.length (List.filter (fun (_, role) -> role = Input) t.pins)

let transistor_count t = List.length t.transistors

let pp ppf t =
  Format.fprintf ppf "%s(%s) [%d tx]" t.name
    (String.concat ", " (List.map fst t.pins))
    (transistor_count t)

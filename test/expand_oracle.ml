(* The by-name gate-to-transistor expansion, kept as the reference for
   Mae_celllib.Expand.circuit: every transistor and net is named by
   concatenation and entered through Mae_netlist.Builder's name tables,
   terminal by terminal.  The id-keyed expansion must build an identical
   circuit (names, kinds, pins, net order, connectivity, ports). *)

open Mae_celllib

(* A skipped pin marks a terminal that must not be wired (supply rails
   when [include_supplies] is false). *)
exception Skip

let circuit ?(include_supplies = false) library (c : Mae_netlist.Circuit.t) =
  let builder =
    Mae_netlist.Builder.create ~name:(c.name ^ "_tx") ~technology:c.technology
  in
  let net_name i = c.nets.(i).Mae_netlist.Net.name in
  let resolve (d : Mae_netlist.Device.t) = function
    | Cell.Pin i ->
        if i >= Array.length d.pins then
          (* The schematic gave fewer pins than the cell defines; connect
             the missing pin to a fresh private net so estimation can
             proceed (matches how a layout tool would leave it floating). *)
          String.concat "" [ d.name; ".unconnected"; string_of_int i ]
        else net_name d.pins.(i)
    | Cell.Internal n -> String.concat "" [ d.name; "."; n ]
    | Cell.Vdd -> if include_supplies then "vdd!" else raise Skip
    | Cell.Gnd -> if include_supplies then "gnd!" else raise Skip
  in
  let expand_device (d : Mae_netlist.Device.t) =
    match Library.find library d.kind with
    | None -> Error (Expand.Unknown_cell { device = d.name; kind = d.kind })
    | Some cell ->
        List.iter
          (fun (t : Cell.transistor) ->
            let terminals = [ t.drain; t.gate; t.source ] in
            let nets =
              List.filter_map
                (fun term ->
                  match resolve d term with
                  | name -> Some name
                  | exception Skip -> None)
                terminals
            in
            ignore
              (Mae_netlist.Builder.add_device builder
                 ~name:(d.name ^ "." ^ t.name)
                 ~kind:t.kind ~nets))
          cell.transistors;
        Ok ()
  in
  let rec go i =
    if i >= Array.length c.devices then Ok ()
    else begin
      match expand_device c.devices.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error e
    end
  in
  match go 0 with
  | Error e -> Error e
  | Ok () ->
      Array.iter
        (fun (p : Mae_netlist.Port.t) ->
          Mae_netlist.Builder.add_port builder ~name:p.name
            ~direction:p.direction ~net:(net_name p.net))
        c.ports;
      Ok (Mae_netlist.Builder.build builder)


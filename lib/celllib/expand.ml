type error = Unknown_cell of { device : string; kind : string }

let pp_error ppf (Unknown_cell { device; kind }) =
  Format.fprintf ppf "device %s: no cell template for kind %s" device kind

exception Unknown of error

(* Every device's cell wiring, in device order; the first device with no
   template is the error. *)
let wirings library (c : Mae_netlist.Circuit.t) =
  match
    Array.map
      (fun (d : Mae_netlist.Device.t) ->
        match Library.find library d.kind with
        | Some cell -> cell.wiring
        | None -> raise (Unknown (Unknown_cell { device = d.name; kind = d.kind })))
      c.devices
  with
  | ws -> Ok ws
  | exception Unknown e -> Error e

(* Expanded nets are numbered in the order their first terminal is
   wired.  Each is looked up by name once, when it is first wired: a
   schematic net through [raw], a cell-private net through the device's
   [slots], a rail through [vdd] / [gnd].  The lookup keeps two names
   that coincide (a schematic net [g1.n1] and device [g1]'s internal
   [n1]) as one net. *)
let circuit ?(include_supplies = false) library (c : Mae_netlist.Circuit.t) =
  match wirings library c with
  | Error e -> Error e
  | Ok wirings ->
      let open Mae_netlist in
      (* the schematic's nets, each device's private nets and two rails *)
      let ids =
        Intern.create
          (Array.fold_left
             (fun acc (w : Cell.wiring) -> acc + Array.length w.internal_nets)
             (Array.length c.nets + 2) wirings)
      in
      let raw = Array.make (Array.length c.nets) (-1) in
      let raw_net n =
        if raw.(n) < 0 then raw.(n) <- Intern.intern ids c.nets.(n).name;
        raw.(n)
      in
      let vdd = ref (-1) and gnd = ref (-1) in
      let rail r name =
        if !r < 0 then r := Intern.intern ids name;
        !r
      in
      let slots =
        Array.make
          (Array.fold_left (fun m w -> max m (Cell.slot_count w)) 0 wirings)
          (-1)
      in
      let resolve (d : Device.t) (w : Cell.wiring) code =
        if code = Cell.vdd_terminal then rail vdd "vdd!"
        else if code = Cell.gnd_terminal then rail gnd "gnd!"
        else if code < w.pin_count && code < Array.length d.pins then
          raw_net d.pins.(code)
        else begin
          if slots.(code) < 0 then
            slots.(code) <-
              Intern.intern ids
                (if code < w.pin_count then
                   (* The schematic gave fewer pins than the cell defines;
                      the missing pin gets a fresh private net so
                      estimation can proceed (as a layout tool would leave
                      it floating). *)
                   d.name ^ ".unconnected" ^ string_of_int code
                 else d.name ^ "." ^ w.internal_nets.(code - w.pin_count));
          slots.(code)
        end
      in
      (* rails are left out of the result unless [include_supplies]:
         a rail terminal is then no pin at all *)
      let wired code = include_supplies || code >= 0 in
      let next = ref 0 in
      let expand di (d : Device.t) =
        let w = wirings.(di) in
        Array.fill slots 0 (Cell.slot_count w) (-1);
        Array.init (Array.length w.tx_names) (fun t ->
            let base = 3 * t in
            let kept = ref 0 in
            for k = 0 to 2 do
              if wired w.terminals.(base + k) then incr kept
            done;
            let pins = Array.make !kept 0 in
            let p = ref 0 in
            for k = 0 to 2 do
              let code = w.terminals.(base + k) in
              if wired code then begin
                pins.(!p) <- resolve d w code;
                incr p
              end
            done;
            let index = !next in
            next := index + 1;
            Device.make ~index ~name:(d.name ^ "." ^ w.tx_names.(t))
              ~kind:w.tx_kinds.(t) ~pins)
      in
      let devices = Array.concat (Array.to_list (Array.mapi expand c.devices)) in
      let ports =
        Array.map
          (fun (p : Port.t) ->
            Port.make ~name:p.name ~direction:p.direction ~net:(raw_net p.net))
          c.ports
      in
      let nets = Array.mapi (fun index name -> Net.make ~index ~name) (Intern.names ids) in
      Ok
        (Circuit.of_arrays ~name:(c.name ^ "_tx") ~technology:c.technology
           ~devices ~nets ~ports)

let transistor_count library (c : Mae_netlist.Circuit.t) =
  let rec go acc i =
    if i >= Array.length c.devices then Ok acc
    else begin
      let d = c.devices.(i) in
      match Library.find library d.kind with
      | None -> Error (Unknown_cell { device = d.name; kind = d.kind })
      | Some cell -> go (acc + Cell.transistor_count cell) (i + 1)
    end
  in
  go 0 0

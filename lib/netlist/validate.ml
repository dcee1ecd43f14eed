type issue =
  | Unknown_device_kind of { device : string; kind : string }
  | Dangling_net of { net : string }
  | Single_pin_net of { net : string }
  | Unconnected_device of { device : string }
  | No_devices
  | No_ports

let is_error = function
  | Unknown_device_kind _ | No_devices -> true
  | Dangling_net _ | Single_pin_net _ | Unconnected_device _ | No_ports -> false

let check (c : Circuit.t) process =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if Circuit.device_count c = 0 then add No_devices;
  if Circuit.port_count c = 0 then add No_ports;
  let kinds = Stats.device_kinds c process in
  Array.iteri
    (fun i (d : Device.t) ->
      if Option.is_none kinds.(i) then
        add (Unknown_device_kind { device = d.name; kind = d.kind });
      if Array.length d.pins = 0 then add (Unconnected_device { device = d.name }))
    c.devices;
  (* one boolean mask instead of [Circuit.is_port_net] per net: the
     latter scans every port, turning this loop O(nets * ports) on a
     path the driver runs for every module *)
  let port_mask = Array.make (Circuit.net_count c) false in
  Array.iter (fun (p : Port.t) -> port_mask.(p.net) <- true) c.ports;
  Array.iter
    (fun (n : Net.t) ->
      let deg = Circuit.degree c n.index in
      let has_port = port_mask.(n.index) in
      if deg = 0 && not has_port then add (Dangling_net { net = n.name })
      else if deg = 1 && not has_port then add (Single_pin_net { net = n.name }))
    c.nets;
  List.stable_sort
    (fun a b -> Bool.compare (is_error b) (is_error a))
    (List.rev !issues)

let pp_issue ppf = function
  | Unknown_device_kind { device; kind } ->
      Format.fprintf ppf "error: device %s uses unknown kind %s" device kind
  | Dangling_net { net } -> Format.fprintf ppf "warning: net %s is dangling" net
  | Single_pin_net { net } ->
      Format.fprintf ppf "warning: net %s has a single pin" net
  | Unconnected_device { device } ->
      Format.fprintf ppf "warning: device %s has no pins" device
  | No_devices -> Format.fprintf ppf "error: circuit has no devices"
  | No_ports -> Format.fprintf ppf "warning: circuit has no ports"

type t = {
  name : string;
  technology : string;
  devices : Device.t array;
  nets : Net.t array;
  ports : Port.t array;
  net_devices : int array array;
}

let check_dense_indices what get arr =
  Array.iteri
    (fun i x ->
      if get x <> i then
        invalid_arg
          (Printf.sprintf "Circuit.make: %s index %d at position %d" what (get x) i))
    arr

let check_unique_names what get arr =
  let seen = Intern.create (Array.length arr) in
  Array.iter
    (fun x ->
      let n = get x in
      if not (Intern.fresh seen n) then
        invalid_arg (Printf.sprintf "Circuit.make: duplicate %s name %s" what n))
    arr

let out_of_range what name n =
  invalid_arg (Printf.sprintf "Circuit.make: %s %s references net %d" what name n)

(* [net_devices] in two passes over the pins: count each net's distinct
   devices, then fill.  [last.(n)] is the last device seen on net [n];
   devices go in ascending index order, so every row comes out ascending
   and distinct without a sort. *)
let connectivity ~net_count devices =
  let last = Array.make net_count (-1) and fill = Array.make net_count 0 in
  let pass visit =
    Array.iter
      (fun (d : Device.t) ->
        let pins = d.pins in
        for k = 0 to Array.length pins - 1 do
          let n = pins.(k) in
          if last.(n) <> d.index then begin
            last.(n) <- d.index;
            visit n d.index;
            fill.(n) <- fill.(n) + 1
          end
        done)
      devices
  in
  pass (fun _ _ -> ());
  (* made from [[||]] and filled: an array past the minor heap's size
     limit that [Array.map] starts from a young row forces a minor
     collection *)
  let net_devices = Array.make net_count [||] in
  Array.iteri (fun n k -> net_devices.(n) <- Array.make k 0) fill;
  Array.fill last 0 net_count (-1);
  Array.fill fill 0 net_count 0;
  pass (fun n d -> net_devices.(n).(fill.(n)) <- d);
  net_devices

(* The checks that need no name table, in the order [of_arrays] runs
   them: the circuit's name and dense indices before any uniqueness
   check, pin and port ranges after. *)
let check_shape ~name ~devices ~nets =
  if String.length name = 0 then invalid_arg "Circuit.make: empty name";
  check_dense_indices "device" (fun (d : Device.t) -> d.index) devices;
  check_dense_indices "net" (fun (n : Net.t) -> n.index) nets

let connect ~name ~technology ~devices ~nets ~ports =
  let net_count = Array.length nets in
  Array.iter
    (fun (d : Device.t) ->
      for k = 0 to Array.length d.pins - 1 do
        let n = d.pins.(k) in
        if n < 0 || n >= net_count then out_of_range "device" d.name n
      done)
    devices;
  Array.iter
    (fun (p : Port.t) ->
      if p.net < 0 || p.net >= net_count then out_of_range "port" p.name p.net)
    ports;
  let net_devices = connectivity ~net_count devices in
  { name; technology; devices; nets; ports; net_devices }

let of_distinct_arrays ~name ~technology ~devices ~nets ~ports =
  check_shape ~name ~devices ~nets;
  connect ~name ~technology ~devices ~nets ~ports

let of_arrays ~name ~technology ~devices ~nets ~ports =
  check_shape ~name ~devices ~nets;
  check_unique_names "device" (fun (d : Device.t) -> d.name) devices;
  check_unique_names "net" (fun (n : Net.t) -> n.name) nets;
  check_unique_names "port" (fun (p : Port.t) -> p.name) ports;
  connect ~name ~technology ~devices ~nets ~ports

let make ~name ~technology ~devices ~nets ~ports =
  of_arrays ~name ~technology ~devices:(Array.of_list devices)
    ~nets:(Array.of_list nets) ~ports:(Array.of_list ports)

let device_count t = Array.length t.devices

let net_count t = Array.length t.nets

let port_count t = Array.length t.ports

let check_net t n =
  if n < 0 || n >= Array.length t.nets then
    invalid_arg (Printf.sprintf "Circuit: net %d out of range" n)

let devices_on_net t n =
  check_net t n;
  t.net_devices.(n)

let degree t n = Array.length (devices_on_net t n)

let nets_of_device t d =
  if d < 0 || d >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Circuit: device %d out of range" d);
  Device.nets t.devices.(d)

let find_net t name =
  Array.find_opt (fun (n : Net.t) -> String.equal n.name name) t.nets

let find_device t name =
  Array.find_opt (fun (d : Device.t) -> String.equal d.name name) t.devices

let is_port_net t n =
  check_net t n;
  Array.exists (fun (p : Port.t) -> p.net = n) t.ports

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d devices, %d nets, %d ports (%s)" t.name
    (device_count t) (net_count t) (port_count t) t.technology

type t = {
  name : string;
  technology : string;
  net_index : int Names.t;
  mutable nets_rev : Net.t list;
  mutable devices_rev : Device.t list;
  mutable ports_rev : Port.t list;
  device_names : unit Names.t;
  port_names : unit Names.t;
  mutable net_count : int;
  mutable device_count : int;
}

let create ~name ~technology =
  {
    name;
    technology;
    net_index = Names.create 64;
    nets_rev = [];
    devices_rev = [];
    ports_rev = [];
    device_names = Names.create 64;
    port_names = Names.create 16;
    net_count = 0;
    device_count = 0;
  }

let net t name =
  match Names.find t.net_index name with
  | i -> i
  | exception Not_found ->
      let index = t.net_count in
      let n = Net.make ~index ~name in
      t.net_count <- index + 1;
      Names.add t.net_index name index;
      t.nets_rev <- n :: t.nets_rev;
      index

let add_device t ~name ~kind ~nets =
  if not (Names.fresh t.device_names name) then
    invalid_arg ("Builder.add_device: duplicate instance " ^ name);
  let pins = Array.of_list (List.map (net t) nets) in
  let index = t.device_count in
  let d = Device.make ~index ~name ~kind ~pins in
  t.device_count <- index + 1;
  t.devices_rev <- d :: t.devices_rev;
  index

let add_port t ~name ~direction ~net:net_name =
  if not (Names.fresh t.port_names name) then
    invalid_arg ("Builder.add_port: duplicate port " ^ name);
  t.ports_rev <- Port.make ~name ~direction ~net:(net t net_name) :: t.ports_rev

let device_count t = t.device_count

let build t =
  Circuit.make ~name:t.name ~technology:t.technology
    ~devices:(List.rev t.devices_rev)
    ~nets:(List.rev t.nets_rev)
    ~ports:(List.rev t.ports_rev)

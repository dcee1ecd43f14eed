(* A net's or a device's index is its name's id in [nets] or [device_names]. *)
type t = {
  name : string;
  technology : string;
  nets : Intern.t;
  device_names : Intern.t;
  port_names : Intern.t;
  mutable devices_rev : Device.t list;
  mutable ports_rev : Port.t list;
}

let create ~name ~technology =
  {
    name;
    technology;
    nets = Intern.create 64;
    device_names = Intern.create 64;
    port_names = Intern.create 16;
    devices_rev = [];
    ports_rev = [];
  }

let net t name = Intern.intern t.nets name

let add_device t ~name ~kind ~nets =
  if not (Intern.fresh t.device_names name) then
    invalid_arg ("Builder.add_device: duplicate instance " ^ name);
  let pins = Array.of_list (List.map (net t) nets) in
  let index = Intern.count t.device_names - 1 in
  t.devices_rev <- Device.make ~index ~name ~kind ~pins :: t.devices_rev;
  index

let add_port t ~name ~direction ~net:net_name =
  if not (Intern.fresh t.port_names name) then
    invalid_arg ("Builder.add_port: duplicate port " ^ name);
  t.ports_rev <- Port.make ~name ~direction ~net:(net t net_name) :: t.ports_rev

let device_count t = Intern.count t.device_names

let build t =
  Circuit.of_arrays ~name:t.name ~technology:t.technology
    ~devices:(Array.of_list (List.rev t.devices_rev))
    ~nets:(Array.mapi (fun index name -> Net.make ~index ~name) (Intern.names t.nets))
    ~ports:(Array.of_list (List.rev t.ports_rev))

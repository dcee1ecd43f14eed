type net_area = {
  net : int;
  degree : int;
  interconnect_area : Mae_geom.Lambda.area;
}

let half_rounded_up degree = (degree + 1) / 2

(* The A_j of equation (13) for net [net], from the statistics alone. *)
let interconnect_area (config : Config.t) (stats : Mae_netlist.Stats.t) ~mode
    ~track net =
  let degree = stats.net_degrees.(net) in
  if degree <= 1 || (degree = 2 && config.two_component_free) then 0.
  else begin
    let mean_width =
      match (mode : Config.device_area_mode) with
      | Average_areas -> stats.average_width
      | Exact_areas -> stats.net_widths.(net) /. Float.of_int degree
    in
    track *. (Float.of_int (half_rounded_up degree) *. mean_width)
  end

let net_areas ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  let track = process.Mae_tech.Process.track_pitch in
  List.init (Array.length stats.net_degrees) (fun net ->
      {
        net;
        degree = stats.net_degrees.(net);
        interconnect_area = interconnect_area config stats ~mode ~track net;
      })

type ledger = {
  device_area : Mae_geom.Lambda.area;
  wire_area : Mae_geom.Lambda.area;
  nets : net_area list;
}

let device_area (stats : Mae_netlist.Stats.t) ~mode =
  if stats.device_count = 0 then
    invalid_arg "Fullcustom.estimate: circuit has no devices"; (* invariant *)
  match (mode : Config.device_area_mode) with
  | Config.Exact_areas -> stats.total_device_area
  | Config.Average_areas ->
      Float.of_int stats.device_count *. stats.average_width
      *. stats.average_height

(* Equation (13)'s sum of the A_j, in net order.  [estimate] takes it
   from here rather than from the ledger's list: building the list cost
   serve-cold about a sixth of its throughput on one seed. *)
let wire_area config (stats : Mae_netlist.Stats.t) ~mode ~track =
  let sum = ref 0. in
  for net = 0 to Array.length stats.net_degrees - 1 do
    sum := !sum +. interconnect_area config stats ~mode ~track net
  done;
  !sum

let ledger ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  let track = process.Mae_tech.Process.track_pitch in
  {
    device_area = device_area stats ~mode;
    wire_area = wire_area config stats ~mode ~track;
    nets = net_areas ~config ~stats ~mode circuit process;
  }

let estimate ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  let device_area = device_area stats ~mode in
  let wire_area =
    wire_area config stats ~mode ~track:process.Mae_tech.Process.track_pitch
  in
  let area = device_area +. wire_area in
  let width, height, aspect_raw =
    Aspect_ratio.fullcustom ~area ~port_count:stats.port_count ~process
  in
  {
    Estimate.device_area;
    wire_area;
    area;
    width;
    height;
    aspect = Aspect_ratio.clamp config aspect_raw;
    aspect_raw;
  }

let pp_ledger ppf l =
  let free, charged = List.partition (fun n -> n.interconnect_area = 0.) l.nets in
  Format.fprintf ppf
    "@[<v>full-custom breakdown:@ \
     \  device area: %.0fL^2@ \
     \  %d nets free (<= 2 components)@ "
    l.device_area (List.length free);
  List.iter
    (fun n ->
      Format.fprintf ppf "  net #%d (%d components): %.0fL^2@ " n.net n.degree
        n.interconnect_area)
    (List.sort
       (fun a b -> Float.compare b.interconnect_area a.interconnect_area)
       charged);
  Format.fprintf ppf "  wire area: %.0fL^2@]" l.wire_area

let estimate_both ?config ?stats circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  ( estimate ?config ~stats ~mode:Config.Exact_areas circuit process,
    estimate ?config ~stats ~mode:Config.Average_areas circuit process )

type net_area = {
  net : int;
  degree : int;
  interconnect_area : Mae_geom.Lambda.area;
}

let half_rounded_up degree = (degree + 1) / 2

let net_areas ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  (* local laziness only: the array is needed in [Exact_areas] mode alone
     and never escapes this call, so there is no cross-domain sharing. *)
  let widths = lazy (Mae_netlist.Stats.device_widths circuit process) in
  let track = process.Mae_tech.Process.track_pitch in
  let area_of_net net =
    let members = Mae_netlist.Circuit.devices_on_net circuit net in
    let degree = Array.length members in
    let free = degree <= 1 || (degree = 2 && config.Config.two_component_free) in
    let interconnect_area =
      if free then 0.
      else begin
        let mean_width =
          match (mode : Config.device_area_mode) with
          | Average_areas -> stats.average_width
          | Exact_areas ->
              let widths = Lazy.force widths in
              Array.fold_left (fun acc d -> acc +. widths.(d)) 0. members
              /. Float.of_int degree
        in
        let channel_length =
          Float.of_int (half_rounded_up degree) *. mean_width
        in
        track *. channel_length
      end
    in
    { net; degree; interconnect_area }
  in
  List.init (Mae_netlist.Circuit.net_count circuit) area_of_net

type ledger = { device_area : Mae_geom.Lambda.area; nets : net_area list }

let ledger ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  if stats.device_count = 0 then
    invalid_arg "Fullcustom.estimate: circuit has no devices"; (* invariant *)
  let device_area =
    match (mode : Config.device_area_mode) with
    | Config.Exact_areas -> stats.total_device_area
    | Config.Average_areas ->
        Float.of_int stats.device_count *. stats.average_width
        *. stats.average_height
  in
  { device_area; nets = net_areas ~config ~stats ~mode circuit process }

let wire_area l =
  List.fold_left (fun acc n -> acc +. n.interconnect_area) 0. l.nets

let estimate ?(config = Config.default) ?stats ~mode circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  let l = ledger ~config ~stats ~mode circuit process in
  let wire_area = wire_area l in
  let area = l.device_area +. wire_area in
  let width, height, aspect_raw =
    Aspect_ratio.fullcustom ~area ~port_count:stats.port_count ~process
  in
  {
    Estimate.device_area = l.device_area;
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
  Format.fprintf ppf "  wire area: %.0fL^2@]" (wire_area l)

let estimate_both ?config ?stats circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  ( estimate ?config ~stats ~mode:Config.Exact_areas circuit process,
    estimate ?config ~stats ~mode:Config.Average_areas circuit process )

let estimate ?(utilization = 0.7) ?stats circuit process =
  if utilization <= 0. || utilization > 1. then
    invalid_arg "Naive.estimate: utilization outside (0, 1]";
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  if stats.device_count = 0 then invalid_arg "Naive.estimate: empty circuit";
  stats.total_device_area /. utilization

let estimate_square ?utilization ?stats circuit process =
  let area = estimate ?utilization ?stats circuit process in
  let edge = Float.sqrt area in
  (edge, edge)

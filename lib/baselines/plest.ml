type density = float

let oracle_density (layout : Mae_layout.Row_layout.t) =
  let channels = Stdlib.max 1 (layout.rows - 1) in
  let inner = ref 0 in
  (* channels strictly between rows are indices 1 .. rows-1 *)
  for c = 1 to layout.rows - 1 do
    inner := !inner + layout.channel_tracks.(c)
  done;
  Float.of_int !inner /. Float.of_int channels

let estimate ~density ~rows ?stats circuit process =
  if density < 0. then invalid_arg "Plest.estimate: negative density";
  if rows < 1 then invalid_arg "Plest.estimate: rows < 1";
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  if stats.device_count = 0 then invalid_arg "Plest.estimate: empty circuit";
  let row_length =
    Float.of_int stats.device_count *. stats.average_width /. Float.of_int rows
  in
  let cell_height = Float.of_int rows *. process.Mae_tech.Process.row_height in
  let wiring_height =
    Float.of_int (rows + 1) *. density *. process.Mae_tech.Process.track_pitch
  in
  row_length *. (cell_height +. wiring_height)

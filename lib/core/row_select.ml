let rows_for_divisor ~cell_area ~row_height ~divisor =
  if cell_area <= 0. then invalid_arg "Row_select: non-positive cell area"; (* invariant *)
  if row_height <= 0. then invalid_arg "Row_select: non-positive row height"; (* invariant *)
  if divisor < 1 then invalid_arg "Row_select: divisor < 1"; (* invariant *)
  let raw = Float.sqrt cell_area /. (Float.of_int divisor *. row_height) in
  Stdlib.max 1 (Float.to_int (Float.ceil (raw -. 1e-9)))

let row_length ~cell_area ~row_height ~rows =
  if rows < 1 then invalid_arg "Row_select.row_length: rows < 1"; (* invariant *)
  cell_area /. (Float.of_int rows *. row_height)

let loop_state ?stats circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  if stats.Mae_netlist.Stats.device_count = 0 then
    invalid_arg "Row_select: circuit has no devices"; (* invariant *)
  let cell_area = stats.Mae_netlist.Stats.total_device_area in
  let row_height = process.Mae_tech.Process.row_height in
  let ports =
    Aspect_ratio.port_length ~port_count:stats.Mae_netlist.Stats.port_count
      ~process
  in
  (cell_area, row_height, ports)

let initial_rows ?stats circuit process =
  let cell_area, row_height, ports = loop_state ?stats circuit process in
  let rec go divisor =
    let rows = rows_for_divisor ~cell_area ~row_height ~divisor in
    let length = row_length ~cell_area ~row_height ~rows in
    if length >= ports || rows = 1 then rows else go (divisor + 1)
  in
  go 2

let candidates ?(max_count = 3) ?stats circuit process =
  if max_count < 1 then invalid_arg "Row_select.candidates: max_count < 1"; (* invariant *)
  let cell_area, row_height, ports = loop_state ?stats circuit process in
  let rec skip_to_accepted divisor =
    let rows = rows_for_divisor ~cell_area ~row_height ~divisor in
    let length = row_length ~cell_area ~row_height ~rows in
    if length >= ports || rows = 1 then divisor else skip_to_accepted (divisor + 1)
  in
  let rec collect divisor acc count =
    if count = 0 then List.rev acc
    else begin
      let rows = rows_for_divisor ~cell_area ~row_height ~divisor in
      if rows = 1 then
        List.rev (if List.mem 1 acc then acc else 1 :: acc)
      else begin
        let acc, count =
          match acc with
          | prev :: _ when prev = rows -> (acc, count)
          | _ -> (rows :: acc, count - 1)
        in
        collect (divisor + 1) acc count
      end
    end
  in
  collect (skip_to_accepted 2) [] max_count

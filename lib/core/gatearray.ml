type params = {
  site_transistors : int;
  site_width : Mae_geom.Lambda.t;
  site_height : Mae_geom.Lambda.t;
  channel_tracks : int;
  utilization : float;
}

let default_params process =
  let nand2 = Mae_tech.Process.find_device_exn process "nand2" in
  {
    site_transistors = 4;
    site_width = nand2.Mae_tech.Device_kind.width;
    site_height = nand2.Mae_tech.Device_kind.height;
    channel_tracks = 10;
    utilization = 0.85;
  }

let validate_params p =
  if p.site_transistors < 1 then Error "site_transistors must be >= 1"
  else if p.site_width <= 0. || p.site_height <= 0. then
    Error "site dimensions must be positive"
  else if p.channel_tracks < 1 then Error "channel_tracks must be >= 1"
  else if p.utilization <= 0. || p.utilization > 1. then
    Error "utilization must be in (0, 1]"
  else Ok p

type estimate = {
  gate_equivalents : int;
  sites : int;
  array_rows : int;
  array_columns : int;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
  area : Mae_geom.Lambda.area;
  aspect : Mae_geom.Aspect.t;
  expected_tracks_per_channel : float;
  routable : bool;
}

(* Transistor count of one device: a transistor is itself; a gate goes
   through its library template.  [library] is resolved once per
   circuit, not once per device -- the technology cannot change
   mid-circuit. *)
let transistor_count_with ~library (circuit : Mae_netlist.Circuit.t) process
    (d : Mae_netlist.Device.t) =
  match Mae_tech.Process.find_device process d.kind with
  | Some kind when Mae_tech.Device_kind.is_transistor kind -> Ok 1
  | Some _ | None -> begin
      match Lazy.force library with
      | None -> Error ("no cell library for technology " ^ circuit.technology)
      | Some library -> begin
          match Mae_celllib.Library.find library d.kind with
          | Some cell -> Ok (Mae_celllib.Cell.transistor_count cell)
          | None -> Error ("no site mapping for kind " ^ d.kind)
        end
    end

let site_demand ?params (circuit : Mae_netlist.Circuit.t) process =
  let params =
    match params with Some p -> p | None -> default_params process
  in
  match validate_params params with
  | Error e -> Error e
  | Ok params ->
      let library =
        lazy (Mae_celllib.Cmos_lib.for_technology circuit.technology)
      in
      let rec go acc i =
        if i >= Array.length circuit.devices then Ok acc
        else begin
          match transistor_count_with ~library circuit process circuit.devices.(i) with
          | Error e -> Error e
          | Ok tx ->
              let sites =
                (tx + params.site_transistors - 1) / params.site_transistors
              in
              go (acc + sites) (i + 1)
        end
      in
      go 0 0

(* The row count of the squarest array offering at least [sites] sites
   (its columns follow: ceil (sites / rows)): an O(sites) scan
   with a log per candidate row count.  Its result depends only on
   (sites, site_width, row_pitch) -- a handful of distinct values per
   process/parameter set across a whole batch -- so the scan is memoized
   in a shared kernel-cache table (floats keyed by their IEEE-754 bits;
   the scan itself is untouched, a hit returns exactly the bits a fresh
   scan would). *)
let shape_table : (int * int64 * int64, int) Mae_prob.Kernel_cache.Table.t =
  Mae_prob.Kernel_cache.Table.create ()

let squarest_rows ~sites ~site_width ~row_pitch =
  Mae_prob.Kernel_cache.Table.find_or_compute shape_table
    (sites, Int64.bits_of_float site_width, Int64.bits_of_float row_pitch)
    (fun () ->
      let best = ref None in
      for rows = 1 to sites do
        let columns = (sites + rows - 1) / rows in
        let width = Float.of_int columns *. site_width in
        let height = Float.of_int rows *. row_pitch in
        let deviation = Float.abs (Float.log (width /. height)) in
        match !best with
        | Some (d, _) when d <= deviation -> ()
        | Some _ | None -> best := Some (deviation, rows)
      done;
      snd (Option.get !best))

let row_pitch params process =
  params.site_height
  +. (Float.of_int params.channel_tracks *. process.Mae_tech.Process.track_pitch)

(* The array at a given row count: its shape, and its routability via
   the paper's own track expectation (the shared statistics -- and,
   through the track model, the shared kernel cache -- keep batch runs
   from recomputing per method). *)
let at_rows ~params ~stats ~demand ~sites process rows =
  let columns = (sites + rows - 1) / rows in
  let width = Float.of_int columns *. params.site_width in
  let height = Float.of_int rows *. row_pitch params process in
  let tracks =
    Row_model.tracks_for_histogram ~model:Config.Paper_model ~rows
      ~degree_histogram:stats.Mae_netlist.Stats.degree_histogram
  in
  let per_channel = Float.of_int tracks /. Float.of_int rows in
  {
    gate_equivalents = demand;
    sites;
    array_rows = rows;
    array_columns = columns;
    width;
    height;
    area = width *. height;
    aspect = Mae_geom.Aspect.make ~width ~height;
    expected_tracks_per_channel = per_channel;
    routable = per_channel <= Float.of_int params.channel_tracks;
  }

let estimate ?params ?stats (circuit : Mae_netlist.Circuit.t) process =
  let params =
    match params with Some p -> p | None -> default_params process
  in
  match validate_params params with
  | Error e -> Error e
  | Ok params -> begin
      match site_demand ~params circuit process with
      | Error e -> Error e
      | Ok 0 -> Error "circuit has no devices"
      | Ok demand ->
          let sites =
            Stdlib.max 1
              (Float.to_int
                 (Float.ceil (Float.of_int demand /. params.utilization)))
          in
          let rows =
            squarest_rows ~sites ~site_width:params.site_width
              ~row_pitch:(row_pitch params process)
          in
          let stats = Mae_netlist.Stats.ensure ?stats circuit process in
          Ok (at_rows ~params ~stats ~demand ~sites process rows)
    end

let estimate_routable ?params ?stats ?(max_growth = 8) circuit process =
  let params =
    match params with Some p -> p | None -> default_params process
  in
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  match estimate ~params ~stats circuit process with
  | Error e -> Error e
  | Ok base ->
      let rec grow rows budget =
        let candidate =
          at_rows ~params ~stats ~demand:base.gate_equivalents ~sites:base.sites
            process rows
        in
        if candidate.routable then Ok candidate
        else if budget = 0 then
          Error "no routable gate-array master within the growth budget"
        else grow (rows * 2) (budget - 1)
      in
      if base.routable then Ok base else grow (Stdlib.max 1 base.array_rows) max_growth

let pp_estimate ppf e =
  Format.fprintf ppf
    "gate-array: %d gate equivalents on a %d x %d array (%d sites), %.0f x \
     %.0f L = %.0f L^2, aspect %a, %.1f expected tracks/channel (%s)"
    e.gate_equivalents e.array_rows e.array_columns e.sites e.width e.height
    e.area Mae_geom.Aspect.pp e.aspect e.expected_tracks_per_channel
    (if e.routable then "routable" else "NOT routable")

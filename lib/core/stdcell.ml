type ledger = {
  rows : int;
  classes : Row_model.track_class list;
  tracks_upper_bound : int;
  sharing : float option;
  tracks : int;
  feed_probability : float;
  feed_throughs : int;
  cell_height : Mae_geom.Lambda.t;
  track_height : Mae_geom.Lambda.t;
  cell_width : Mae_geom.Lambda.t;
  feed_width : Mae_geom.Lambda.t;
}

let ledger ?(config = Config.default) ?stats ~rows circuit process =
  if rows < 1 then invalid_arg "Stdcell.estimate: rows < 1"; (* invariant *)
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  if stats.Mae_netlist.Stats.device_count = 0 then
    invalid_arg "Stdcell.estimate: circuit has no devices"; (* invariant *)
  let classes =
    Row_model.track_classes ~model:config.Config.row_span_model ~rows
      ~degree_histogram:stats.degree_histogram
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 classes in
  let tracks_upper_bound = sum (fun c -> c.Row_model.tracks) in
  let tracks =
    match config.track_sharing_factor with
    | None -> tracks_upper_bound
    | Some f ->
        Stdlib.max 1
          (Float.to_int (Float.ceil (Float.of_int tracks_upper_bound *. f)))
  in
  let connected_nets = sum (fun c -> c.Row_model.net_count) in
  let feed_throughs =
    Feedthrough.expected_feed_throughs ~net_count:connected_nets ~rows
  in
  {
    rows;
    classes;
    tracks_upper_bound;
    sharing = config.track_sharing_factor;
    tracks;
    feed_probability = Feedthrough.prob_two_component ~rows;
    feed_throughs;
    cell_height = Float.of_int rows *. process.Mae_tech.Process.row_height;
    track_height = Float.of_int tracks *. process.Mae_tech.Process.track_pitch;
    cell_width =
      Float.of_int stats.device_count *. stats.average_width
      /. Float.of_int rows;
    feed_width =
      Float.of_int feed_throughs *. process.Mae_tech.Process.feed_through_width;
  }

let estimate ?(config = Config.default) ?stats ~rows circuit process =
  let l = ledger ~config ?stats ~rows circuit process in
  let height = l.cell_height +. l.track_height in
  let width = l.cell_width +. l.feed_width in
  let aspect_raw = Mae_geom.Aspect.make ~width ~height in
  {
    Estimate.rows;
    tracks = l.tracks;
    feed_throughs = l.feed_throughs;
    height;
    width;
    area = height *. width;
    aspect = Aspect_ratio.clamp config aspect_raw;
    aspect_raw;
  }

let pp_ledger ppf l =
  Format.fprintf ppf "@[<v>standard-cell breakdown at %d rows:@ " l.rows;
  List.iter
    (fun (c : Row_model.track_class) ->
      Format.fprintf ppf
        "  %d nets of %d components: E(span) = %d -> %d tracks@ " c.net_count
        c.degree c.expected_span c.tracks)
    l.classes;
  Option.iter
    (fun f ->
      Format.fprintf ppf "  track sharing: %d tracks x %g -> %d tracks@ "
        l.tracks_upper_bound f l.tracks)
    l.sharing;
  Format.fprintf ppf "  total tracks: %d (%.0fL of channel height)@ " l.tracks
    l.track_height;
  Format.fprintf ppf
    "  P(feed-through) = %.3f per net -> E(M) = %d feed-throughs (%.0fL of \
     row length)@ "
    l.feed_probability l.feed_throughs l.feed_width;
  Format.fprintf ppf "  height = %.0fL cells + %.0fL channels@ " l.cell_height
    l.track_height;
  Format.fprintf ppf "  width  = %.0fL cells + %.0fL feed-throughs@]"
    l.cell_width l.feed_width

let estimate_auto ?config ?stats circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  let rows = Row_select.initial_rows ~stats circuit process in
  estimate ?config ~stats ~rows circuit process

let sweep ?config ?stats ~rows circuit process =
  let stats = Mae_netlist.Stats.ensure ?stats circuit process in
  List.map (fun n -> estimate ?config ~stats ~rows:n circuit process) rows

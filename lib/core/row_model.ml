let kernel_model : Config.row_span_model -> Mae_prob.Kernel_cache.span_model =
  function
  | Paper_model -> Mae_prob.Kernel_cache.Paper
  | Exact_occupancy -> Mae_prob.Kernel_cache.Exact

let prob_rows ~model ~rows ~degree =
  if rows < 1 then invalid_arg "Row_model.prob_rows: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Row_model.prob_rows: degree < 1"; (* invariant *)
  Mae_prob.Kernel_cache.row_span_dist_uncached ~model:(kernel_model model)
    ~rows ~degree

let expected_span ~model ~rows ~degree =
  if rows < 1 then invalid_arg "Row_model.expected_span: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Row_model.expected_span: degree < 1"; (* invariant *)
  Mae_prob.Kernel_cache.expected_span ~model:(kernel_model model) ~rows ~degree

type track_class = {
  degree : int;
  net_count : int;
  expected_span : int;
  tracks : int;
}

let track_classes ~model ~rows ~degree_histogram =
  List.filter_map
    (fun (degree, net_count) ->
      if net_count < 0 then invalid_arg "Row_model.track_classes: negative count"; (* invariant *)
      if net_count = 0 then None
      else begin
        let expected_span = expected_span ~model ~rows ~degree in
        Some { degree; net_count; expected_span; tracks = net_count * expected_span }
      end)
    degree_histogram

let tracks_for_histogram ~model ~rows ~degree_histogram =
  List.fold_left
    (fun acc c -> acc + c.tracks)
    0
    (track_classes ~model ~rows ~degree_histogram)

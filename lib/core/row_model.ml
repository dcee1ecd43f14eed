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

let tracks_for_histogram ~model ~rows ~degree_histogram =
  List.fold_left
    (fun acc (degree, count) ->
      if count < 0 then invalid_arg "Row_model.tracks_for_histogram: negative count"; (* invariant *)
      if count = 0 then acc
      else acc + (count * expected_span ~model ~rows ~degree))
    0 degree_histogram

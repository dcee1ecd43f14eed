(* Both models are the occupancy of [balls] uniform components: the
   paper's b_k(i) = surj(k, i) at k = min(n, D) throws min(n, D) of
   them, the exact model all D. *)
let balls ~model ~rows ~degree =
  match (model : Config.row_span_model) with
  | Paper_model -> Stdlib.min rows degree
  | Exact_occupancy -> degree

let prob_rows ~model ~rows ~degree =
  if rows < 1 then invalid_arg "Row_model.prob_rows: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Row_model.prob_rows: degree < 1"; (* invariant *)
  Mae_prob.Occupancy.dist ~rows ~balls:(balls ~model ~rows ~degree)

let expected_span ~model ~rows ~degree =
  if rows < 1 then invalid_arg "Row_model.expected_span: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Row_model.expected_span: degree < 1"; (* invariant *)
  Mae_prob.Occupancy.expected_ceil ~rows ~balls:(balls ~model ~rows ~degree)

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

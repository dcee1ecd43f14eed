let check_args ~rows ~degree ~row =
  if rows < 1 then invalid_arg "Feedthrough: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Feedthrough: degree < 1"; (* invariant *)
  if row < 1 || row > rows then invalid_arg "Feedthrough: row out of range" (* invariant *)

(* Equation (5): sum over l components inside row i (0 <= l <= D-2) and
   j components above it (1 <= j <= D-l-1); the rest lie below.
   p_in = 1/n, p_above = (i-1)/n, p_below = (n-i)/n. *)
let prob_in_row ~rows ~degree ~row =
  check_args ~rows ~degree ~row;
  let n = Float.of_int rows in
  let p_in = 1. /. n in
  let p_above = Float.of_int (row - 1) /. n in
  let p_below = Float.of_int (rows - row) /. n in
  let d = degree in
  let total = ref 0. in
  for l = 0 to d - 2 do
    let z = ref 0. in
    for j = 1 to d - l - 1 do
      z :=
        !z
        +. Mae_prob.Comb.float_pow p_above j
           *. Mae_prob.Comb.float_pow p_below (d - l - j)
           *. Mae_prob.Comb.choose (d - l) j
    done;
    total := !total +. (Mae_prob.Comb.choose d l *. Mae_prob.Comb.float_pow p_in l *. !z)
  done;
  !total

(* P(feed) = 1 - P(none above) - P(none below) + P(none above & none below).
   "Not above" happens with probability (n-i+1)/n per component, etc.
   The four terms cancel only approximately in floats: at a boundary row
   the true probability is exactly 0 but the alternating sum leaves a
   residual of order one ulp, which can be *negative* -- the
   differential harness caught the closed form returning -5.6e-17.
   Clamp to [0, 1]. *)
let closed_form ~rows ~degree ~row_position =
  let n = Float.of_int rows in
  let d = degree in
  let not_above = (n -. row_position +. 1.) /. n in
  let not_below = row_position /. n in
  let inside = 1. /. n in
  Float.max 0.
    (Float.min 1.
       (1.
       -. Mae_prob.Comb.float_pow not_above d
       -. Mae_prob.Comb.float_pow not_below d
       +. Mae_prob.Comb.float_pow inside d))

let prob_in_row_closed ~rows ~degree ~row =
  check_args ~rows ~degree ~row;
  closed_form ~rows ~degree ~row_position:(Float.of_int row)

let central_row ~rows =
  if rows < 1 then invalid_arg "Feedthrough.central_row: rows < 1"; (* invariant *)
  Float.of_int (rows + 1) /. 2.

let argmax_row ~rows ~degree =
  if rows < 1 then invalid_arg "Feedthrough.argmax_row: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Feedthrough.argmax_row: degree < 1"; (* invariant *)
  (* Strict improvement beyond 1e-15, the tolerance shared with
     [Montecarlo.argmax_feed_through]: an even row count has two equal
     central rows and both argmaxes must resolve to the lower one. *)
  let best = ref 1 and best_p = ref Float.neg_infinity in
  for row = 1 to rows do
    let p = prob_in_row_closed ~rows ~degree ~row in
    if p > !best_p +. 1e-15 then begin
      best := row;
      best_p := p
    end
  done;
  !best

(* Equation (8): the closed form at the possibly fractional central row.
   For a fractional row position the "inside" band has zero width, so the
   complement probabilities use the continuous split (i-1)/n each side;
   closed_form handles this uniformly. *)
let prob_central ~rows ~degree =
  if rows < 1 then invalid_arg "Feedthrough.prob_central: rows < 1"; (* invariant *)
  if degree < 1 then invalid_arg "Feedthrough.prob_central: degree < 1"; (* invariant *)
  closed_form ~rows ~degree ~row_position:(central_row ~rows)

let prob_two_component ~rows =
  if rows < 1 then invalid_arg "Feedthrough.prob_two_component: rows < 1"; (* invariant *)
  Mae_prob.Kernel_cache.two_component_feed_prob ~rows

let feed_through_dist ~net_count ~rows =
  if net_count < 0 then invalid_arg "Feedthrough.feed_through_dist: net_count < 0"; (* invariant *)
  if rows < 1 then invalid_arg "Feedthrough.feed_through_dist: rows < 1"; (* invariant *)
  Mae_prob.Kernel_cache.feed_through_dist_uncached ~net_count ~rows

let expected_feed_throughs ~net_count ~rows =
  if net_count < 0 then
    invalid_arg "Feedthrough.expected_feed_throughs: net_count < 0"; (* invariant *)
  if rows < 1 then invalid_arg "Feedthrough.expected_feed_throughs: rows < 1"; (* invariant *)
  Mae_prob.Kernel_cache.expected_feed_throughs ~net_count ~rows

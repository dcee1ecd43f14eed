(** Equations (4)-(11): feed-throughs.

    A net whose components straddle row i (at least one component strictly
    above and one strictly below) must send one vertical feed-through wire
    across that row, widening it by the feed-through cell width.  The
    paper shows the central row i = (n+1)/2 maximizes this probability,
    reduces every net to a two-component model (equation 9), and takes a
    binomial expectation over the H nets (equations 10-11). *)

val prob_in_row : rows:int -> degree:int -> row:int -> float
(** Equation (5) verbatim: the probability that a net with [degree]
    components contributes a feed-through to row [row] (1-based), summing
    over the number of components l placed inside the row and the split j
    of the remainder above/below.  Raises [Invalid_argument] unless
    [1 <= row <= rows] and [degree >= 1]. *)

val prob_in_row_closed : rows:int -> degree:int -> row:int -> float
(** Inclusion-exclusion closed form of the same probability:
    1 - P(no component above) - P(no component below) + P(neither).
    Agrees with {!prob_in_row} to round-off (property-tested); used as a
    cross-check and as the fast path. *)

val central_row : rows:int -> float
(** The stationary point of equation (7): (rows + 1) / 2, possibly
    half-integral for an even row count. *)

val argmax_row : rows:int -> degree:int -> int
(** The integer row maximizing {!prob_in_row} (lower row on ties, under
    the same 1e-15 tolerance as [Montecarlo.argmax_feed_through]; for an
    even row count the two central rows tie exactly and the lower wins).
    The paper's claim, verified by tests: this is always a central row. *)

val prob_central : rows:int -> degree:int -> float
(** Equation (8): {!prob_in_row_closed} evaluated at the (possibly
    fractional) central row. *)

val prob_two_component : rows:int -> float
(** Equation (9): the simplified two-component model
    ((n - 1) / n)^2 / 2, whose limit for large n is 0.5. *)

val feed_through_dist : net_count:int -> rows:int -> Mae_prob.Dist.t
(** Equation (10): the binomial distribution of the number M of
    feed-throughs in the central row, over H nets each contributing with
    probability {!prob_two_component}. *)

val expected_feed_throughs : net_count:int -> rows:int -> int
(** Equation (11): E(M) = H * (n - 1)^2 / (2 n^2), rounded up, computed
    in integers.  Equals [Dist.expectation_ceil] of {!feed_through_dist}
    (pinned by [mae check]). *)

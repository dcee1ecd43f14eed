(** Equations (2)-(3): how many rows do the D components of a net span?

    A component lands in any of the n rows with probability 1/n.  The
    number of rows actually occupied determines how many routing tracks
    the net consumes under the paper's one-net-per-track assumption: a net
    spanning i rows needs i tracks (one in each neighbouring channel).

    Both models are the occupancy of {!Mae_prob.Occupancy}: the paper's
    throws [min n D] components, the exact model all [D].
    {!expected_span} depends only on [(rows, degree)] and is served from
    that module's lazily filled table; {!prob_rows} builds the
    distribution afresh on every call. *)

val prob_rows :
  model:Config.row_span_model -> rows:int -> degree:int -> Mae_prob.Dist.t
(** Distribution of the number of occupied rows, over support
    [1 .. min rows degree].

    [Paper_model] is equation (2): weight(i) proportional to
    [C(n,i) * b(i)] with [b] the paper's recurrence at exponent
    [k = min (n, D)], which is the occupancy of [k] components.
    [Exact_occupancy] is the occupancy of all [D] components,
    [C(n,i) * surj(D,i) / n^D].  The two agree whenever [rows >= degree].

    Raises [Invalid_argument] when [rows < 1] or [degree < 1]. *)

val expected_span : model:Config.row_span_model -> rows:int -> degree:int -> int
(** Equation (3): E(i), rounded up to the next integer as the paper
    prescribes.  This is the number of tracks charged to one net of this
    degree. *)

type track_class = {
  degree : int;  (** D *)
  net_count : int;  (** y_D *)
  expected_span : int;  (** ceil E(i): tracks charged to one net of degree D *)
  tracks : int;  (** y_D * expected_span *)
}

val track_classes :
  model:Config.row_span_model ->
  rows:int ->
  degree_histogram:(int * int) list ->
  track_class list
(** One class per histogram entry with [y_D > 0], in histogram order.
    Raises [Invalid_argument] on a negative count or non-positive
    degree. *)

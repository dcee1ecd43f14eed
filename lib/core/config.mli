(** Estimator configuration.

    The defaults reproduce the paper exactly; the other knobs implement the
    ablations and extensions discussed in sections 6-7 (track sharing, the
    two-component-net rule, the aspect-ratio clamp).  The pipeline
    ({!Driver}, the batch engine and the serve daemon) always runs
    {!default}; the other values are for direct calls to {!Stdcell},
    {!Fullcustom} and {!Extensions}. *)

type device_area_mode =
  | Exact_areas  (** sum the per-device footprints from the process *)
  | Average_areas  (** use N * W_avg * h_avg, the paper's second variant *)

type row_span_model =
  | Paper_model
      (** equation (2) with the [k = min(n, D)] exponent heuristic *)
  | Exact_occupancy
      (** exact occupancy distribution C(n,i) * surj(D,i) / n^D; identical
          to [Paper_model] whenever [n >= D] *)

type t = {
  row_span_model : row_span_model;
  two_component_free : bool;
      (** full-custom: nets with D <= 2 contribute zero wire area (the
          Table 1 footnote semantics); [false] charges them one channel *)
  track_sharing_factor : float option;
      (** [Some f] scales the expected track count by [f] in (0, 1] —
          the section 7 future-work correction; [None] reproduces the
          paper's one-net-per-track upper bound *)
  aspect_clamp : (float * float) option;
      (** clamp band for the reported aspect ratio, section 6's
          "1:1 to 1:2"; [None] reports the raw equation (14) value *)
}

val default : t
(** Paper-faithful: [Paper_model], two-component nets free, no track
    sharing, clamp band (1.0, 2.0). *)

val paper_raw : t
(** Like {!default} but with no aspect clamp: the raw equation values. *)

val validate : t -> (t, string) result
(** Rejects a non-positive or >1 sharing factor and an inverted or
    non-positive clamp band. *)

(** The differential correctness harness behind [mae check].

    Three independent oracles are compared over randomized
    {!Mae_workload.Sweep} cases [(n, D, H)]:

    - the closed-form kernels the pipeline serves
      ({!Mae.Row_model}, {!Mae.Feedthrough});
    - the Monte-Carlo simulator ({!Mae_prob.Montecarlo}), judged inside
      a z-sigma Wilson interval;
    - the exact enumerator ({!Enumerate}), compared to the closed forms
      to a hard tolerance (1e-12 by default).

    Any failing case is shrunk to a minimal reproducer.  The paper's
    Table 1 / Table 2 estimator outputs are pinned as golden rows,
    re-derived {e through the methodology registry}
    ({!Mae.Methodology.run}) so the registry plumbing itself is under
    the gate; a cross-method sanity section additionally runs every
    registered estimator (all eight, baselines included) over the bench
    suites and checks estimator-independent invariants (success,
    positive area, width * height = area, and a summed-device-area floor
    for the footprint-accounting models).  A separate kernel section
    ({!run_kernels}) pins the served ceil E(i) of both row-span models
    to the closed-form occupancy mean over a whole [(n, D)] grid, and
    the served integer E(M) to the ceiling of its binomial distribution
    over a whole [(H, n)] grid.  Progress and totals flow
    through {!Mae_obs} counters and spans ([mae_check_cases_total],
    [mae_check_comparisons_total], [mae_check_violations_total]; spans
    [check.run] / [check.case]). *)

type config = {
  trials : int;  (** Monte-Carlo trials per case *)
  cases : int;  (** randomized sweep cases *)
  seed : int;
  max_rows : int;  (** n ceiling for the enumeration envelope *)
  max_degree : int;  (** D ceiling *)
  max_nets : int;  (** H ceiling *)
  exact_tol : float;  (** exact-vs-closed-form tolerance *)
  eq5_tol : float;  (** eq. (5) double sum vs closed form *)
  mc_z : float;  (** Wilson interval width in sigmas *)
}

val default : config
(** trials 200000, cases 64, seed 42, n <= 8, D <= 5, H <= 64,
    exact_tol 1e-12, eq5_tol 1e-10, z = 4. *)

type finding = {
  check : string;  (** family name, e.g. ["span.exact_vs_enum"] *)
  case : Mae_workload.Sweep.case;  (** as drawn by the sweep *)
  shrunk : Mae_workload.Sweep.case;  (** minimal failing reproducer *)
  delta : float;  (** observed |difference| at the shrunk case *)
  bound : float;  (** the tolerance it exceeded *)
  detail : string;
}

type family_stat = { family : string; comparisons : int; max_delta : float }

type golden_result = {
  label : string;
  expected : float;
  actual : float;
  ok : bool;
}

type cross_result = {
  label : string;  (** [cross.<circuit>.<method>.<invariant>] *)
  detail : string;
  ok : bool;
}

type report = {
  cases_run : int;
  comparisons : int;
  families : family_stat list;
  findings : finding list;  (** empty iff every comparison held *)
  golden : golden_result list;
  cross : cross_result list;  (** cross-method sanity over the bench suites *)
  passed : bool;
}

val run : ?log:(string -> unit) -> config -> report
(** Run the full sweep plus the golden rows.  [log] receives progress
    and failure lines as they happen.  Deterministic for a given
    [config] (every Monte-Carlo stream is derived from [seed] and the
    case coordinates).  Raises [Invalid_argument] on a non-positive
    config field. *)

val run_kernels : unit -> cross_result list
(** The kernel section, over fixed grids: one result per grid,
    [kernel.span_ceil.paper] and [kernel.span_ceil.exact] (the served
    ceil E(i) against n (1 - (1 - 1/n)^balls) for every n, D in
    [1 .. 127]) and [kernel.feed_ceil] (the served E(M) against the
    ceiling of its binomial for every H in [0 .. 3000], n in
    [1 .. 40]).  A few seconds; [mae check] runs it after {!run}. *)

val derive_goldens : unit -> (string * float) list
(** Recompute the golden Table 1 / Table 2 rows from the live estimator
    through the methodology registry (label, value) -- the source of the
    pinned constants, exposed so they can be regenerated when the model
    intentionally changes. *)

val report_json :
  config -> report -> kernels:cross_result list -> Mae_obs.Json.t
(** The machine-readable report ([mae check --report]), with the
    {!run_kernels} results under ["kernels"]; its ["passed"] holds only
    if the report passed and every kernel result is ok. *)

val pp_report : Format.formatter -> report -> unit

val pp_kernels : Format.formatter -> cross_result list -> unit

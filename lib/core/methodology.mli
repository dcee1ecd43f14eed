(** The first-class estimator registry.

    The paper's core pattern — netlist statistics in, area/aspect estimate
    out — has many instances: the section 4.1 standard-cell estimator, the
    two section 4.2 full-custom variants, the gate-array extension, and
    the CHAMP/PLEST-style predictors the introduction compares against.
    This module makes the pattern a first-class value: a {e methodology}
    is a named estimator with the common signature
    [estimate : ctx -> Circuit.t -> (outcome, error) result], and a global
    registry maps names to methodologies so that every layer — the
    {!Driver} pipeline, the batch engine, the serve daemon, the check
    harness and the report renderers — selects estimators by name instead
    of hardcoding them.

    Adding an estimator is a single {!register} call; the driver, engine
    CLI ([--methods]), serve request schema and [GET /methods] discovery
    endpoint pick it up without further changes.

    The four core methodologies ([stdcell], [fullcustom-exact],
    [fullcustom-average], [gatearray]) register here at module
    initialization; the four baselines ([naive], [champ], [pla], [plest])
    register from [Mae_baselines.Methods] when that library is linked
    (the engine, serve daemon and check harness all link it). *)

(** {1 Typed errors}

    No pipeline path raises: estimator preconditions that used to be
    [Invalid_argument]/[Failure] surface as values here.  Exceptions
    escaping an estimator are converted by {!run} at the boundary. *)

type error =
  | Unknown_method of string  (** no methodology registered under this name *)
  | Unsupported of { methodology : string; reason : string }
      (** the methodology cannot apply to this circuit/process pair
          (e.g. gate-array with no site cell, CHAMP with no model) *)
  | Invalid_input of { methodology : string; reason : string }
      (** the circuit violates a precondition (empty, unknown device
          kind, bad row count) *)
  | Estimator_failure of { methodology : string; reason : string }
      (** the estimator ran and failed internally *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** {1 Outcomes} *)

(** Per-methodology result payloads, plus the shared dimensions every
    outcome can report. *)
type outcome =
  | Stdcell of { auto : Estimate.stdcell; sweep : Estimate.stdcell list }
      (** the automatically selected row count plus the Table 2 sweep
          (empty when a fixed row count was forced via
          {!ctx.rows_override}) *)
  | Fullcustom of Estimate.fullcustom
  | Gatearray of Gatearray.estimate
  | Scalar of scalar  (** baseline predictors: area plus derived dims *)

and scalar = {
  area : Mae_geom.Lambda.area;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
}

type dims = {
  area : Mae_geom.Lambda.area;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
  aspect : Mae_geom.Aspect.t;
}

val dims : outcome -> dims
(** The shared fields of any outcome (a [Stdcell] outcome reports its
    automatically selected estimate). *)

val kind : outcome -> string
(** ["stdcell"], ["fullcustom"], ["gatearray"] or ["scalar"] — the
    variant tag, for serializers. *)

(** {1 Estimation context}

    Everything a methodology may consume beyond the circuit itself,
    computed once per module and shared across the selected method set
    (the statistics-sharing contract {!Stdcell} and {!Fullcustom}
    established). *)

type ctx = {
  config : Config.t option;
      (** [None] runs every estimator at {!Config.default}; {!make_ctx}
          always sets [None].  The field stays for callers that build a
          ctx by hand (perfbench's per-layer replay sets [None] too) *)
  process : Mae_tech.Process.t;
  stats : Mae_netlist.Stats.t;  (** of the raw circuit *)
  fc_circuit : Mae_netlist.Circuit.t;
      (** the transistor-level circuit full-custom estimation runs on:
          the library expansion when one happened, the raw circuit
          otherwise *)
  fc_stats : Mae_netlist.Stats.t;  (** of [fc_circuit] *)
  rows_override : int option;
      (** force the standard-cell estimator to this row count (used by
          the check harness to re-derive the Table 2 golden rows); [None]
          selects rows automatically *)
}

val expand_for_fullcustom :
  Mae_netlist.Circuit.t -> Mae_tech.Process.t -> Mae_netlist.Circuit.t option
(** Flatten a gate-level schematic through its technology's cell library
    when one exists; [None] when the circuit is already transistor-level
    or no library applies. *)

val stage : name:string -> module_name:string -> (unit -> 'a) -> 'a
(** [stage ~name ~module_name f] runs one Figure-1 pipeline stage under a
    [name] span carrying a [module] attribute, and times it into the
    [mae_<name>_seconds_summary] sketch ([.] becomes [_]).  With
    telemetry off it is one atomic read and a call of [f]. *)

val make_ctx :
  ?rows_override:int ->
  process:Mae_tech.Process.t ->
  Mae_netlist.Circuit.t ->
  (ctx, error) result
(** Expand one circuit for full-custom estimation, then compute the
    statistics of the raw and the expanded circuit, timed as the
    [driver.expand] and [driver.stats] {!stage}s.  This is the one place
    a [ctx] is built: {!Driver.run_circuit} and the check harness both
    call it.  [fc_circuit] is the circuit itself (physically) when
    nothing was expanded.  Returns [Invalid_input] on an unknown device
    kind instead of raising. *)

(** {1 The registry} *)

type t
(** A registered methodology: name, one-line description, estimator. *)

val name : t -> string
val doc : t -> string

val register :
  name:string ->
  doc:string ->
  (ctx -> Mae_netlist.Circuit.t -> (outcome, error) result) ->
  t
(** Register an estimator under [name].  Names must be non-empty and use
    only [[a-z0-9-]].  Raises [Invalid_argument] on a malformed or
    duplicate name — registration happens at module initialization, so a
    clash is a programming error, not a request error.  Per-methodology
    telemetry ([mae_method_<name>_runs_total], [.._errors_total] and the
    [mae_method_<name>_seconds_summary] latency sketch) is created here. *)

val find : string -> t option
val all : unit -> t list  (** registration order *)

val names : unit -> string list
val default_names : string list
(** [["stdcell"; "fullcustom-exact"; "fullcustom-average"]] — the method
    set that reproduces the pre-registry pipeline exactly. *)

val registry_version : unit -> string
(** Hex digest identifying the current estimator registry: the ordered
    registered names plus an explicit epoch.  The estimate store folds
    this into every key, so cached results are invalidated by
    construction when estimators are added, removed, renamed -- or when
    {!bump_registry_epoch} declares their behaviour changed. *)

val registry_epoch : unit -> int

val bump_registry_epoch : unit -> unit
(** Declare that estimator behaviour changed without any rename (e.g. a
    tuned model constant), invalidating previously stored estimates. *)

val resolve : string list -> (t list, string) result
(** Look every name up, preserving order; [Error name] on the first
    unknown one.  The aliases ["default"] and ["all"] expand to
    {!default_names} and {!names} respectively. *)

val selection_of_string : string -> (string list, string) result
(** Parse a CLI/config method set: comma-separated names, with the
    ["default"] and ["all"] aliases.  Rejects empty sets and unknown
    names (the error text lists what is registered). *)

val run : ctx -> t -> Mae_netlist.Circuit.t -> (outcome, error) result
(** Run one methodology under its [method.<name>] span, record its
    run/error counters and latency sketch, and convert any escaping
    exception ({!Mae_netlist.Stats.Unknown_kind}, [Invalid_argument],
    [Failure], [Not_found]) into the corresponding typed {!error} — the
    pipeline boundary where raises become values. *)

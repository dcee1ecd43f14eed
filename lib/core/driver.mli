(** The end-to-end estimator pipeline of Figure 1.

    Input interface (HDL text or an elaborated circuit) + fabrication
    process database -> validation -> one estimate per selected
    {!Methodology} -> a per-module report ready for the output database.

    Estimators are selected by name through the [?methods] parameter
    (default {!Methodology.default_names}, which reproduces the classic
    stdcell + full-custom pipeline exactly).  Each method runs with
    per-module error isolation: a methodology that fails on a circuit
    contributes an [Error] slot to {!module_report.results} while the
    others still produce estimates.  Every estimator runs at
    {!Config.default}; an ablation calls {!Stdcell} or {!Fullcustom}
    with its own [?config] directly.

    Full-custom estimation runs at the transistor level: gate-level
    schematics are flattened through the technology's cell library when
    one exists ({!Mae_celllib.Cmos_lib.for_technology}); schematics that
    are already transistor-level (or whose technology has no library) are
    estimated as-is.

    Every stage is instrumented with {!Mae_obs.Span}: with telemetry on,
    each module records a [driver.module] span nesting one span per
    Figure-1 stage ([driver.validate], [driver.expand], [driver.stats])
    plus one [method.<name>] span per selected methodology, and the
    front end records [driver.parse] / [driver.elaborate]; all carry a
    [module] attribute where applicable.  With telemetry off each stage
    costs one atomic read. *)

type method_result = {
  methodology : Methodology.t;
  outcome : (Methodology.outcome, Methodology.error) result;
}

type module_report = {
  circuit : Mae_netlist.Circuit.t;
  process : Mae_tech.Process.t;
  issues : Mae_netlist.Validate.issue list;  (** warnings only; errors abort *)
  expanded : Mae_netlist.Circuit.t option;
      (** the transistor-level circuit used for full-custom estimation,
          when expansion happened *)
  results : method_result list;
      (** one slot per selected methodology, in selection order *)
}

type error =
  | Parse_error of Mae_hdl.Parser.error
  | Elaborate_error of Mae_hdl.Elaborate.error
  | Unknown_process of { module_name : string; technology : string }
  | Unknown_method of { module_name : string; methodology : string }
  | Validation_failed of {
      module_name : string;
      issues : Mae_netlist.Validate.issue list;
    }

val pp_error : Format.formatter -> error -> unit

(** {1 Per-method accessors}

    Convenience projections over {!module_report.results}.  The
    [option]-returning ones yield [None] both when the methodology was
    not selected and when it ran but returned an error (use
    {!find_result} / {!method_failures} to distinguish). *)

val find_result :
  module_report ->
  string ->
  (Methodology.outcome, Methodology.error) result option
(** The outcome slot of the named methodology, [None] if it was not in
    the selected set. *)

val stdcell : module_report -> Estimate.stdcell option
(** The automatically selected standard-cell estimate. *)

val stdcell_sweep : module_report -> Estimate.stdcell list
(** The Table 2 row-count sweep ([[]] when stdcell was not selected or
    failed). *)

val fullcustom_exact : module_report -> Estimate.fullcustom option
val fullcustom_average : module_report -> Estimate.fullcustom option
val gatearray : module_report -> Gatearray.estimate option

val method_failures : module_report -> (string * Methodology.error) list
(** The methodologies that returned errors on this module, in selection
    order. *)

val run_circuit :
  ?methods:string list ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t ->
  (module_report, error) result
(** Estimate one already-elaborated circuit.  [?methods] names the
    methodologies to run (the {!Methodology.resolve} aliases ["default"]
    and ["all"] work here too); default [["default"]]. *)

val run_circuits :
  ?methods:string list ->
  registry:Mae_tech.Registry.t ->
  Mae_netlist.Circuit.t list ->
  (module_report, error) result list
(** Batch entry point: estimate every circuit with per-module error
    isolation -- one failing module yields an [Error] slot, the rest of
    the batch still runs.  Results are in input order.  This is the
    sequential reference semantics of {!Mae_engine}'s parallel runner. *)

val design_circuits :
  Mae_hdl.Ast.design -> (Mae_netlist.Circuit.t list, error) result
(** Elaborate a parsed design into the circuit batch it contains. *)

val string_circuits : string -> (Mae_netlist.Circuit.t list, error) result
(** Parse HDL text and elaborate it into a circuit batch. *)

val file_circuits : string -> (Mae_netlist.Circuit.t list, error) result
(** Parse an HDL file and elaborate it into a circuit batch. *)

val run_string :
  ?methods:string list ->
  registry:Mae_tech.Registry.t ->
  string ->
  (module_report list, error) result
(** Parse HDL text and estimate every module in it. *)

val run_file :
  ?methods:string list ->
  registry:Mae_tech.Registry.t ->
  string ->
  (module_report list, error) result

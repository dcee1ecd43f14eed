(** One module's entry in the estimator's output database.

    Figure 1: the estimates "are stored in a data base, which also
    contains the global module descriptions ... This data base is input
    to the floor planner."  A record is the flattened, tool-independent
    summary of a {!Mae.Driver.module_report}. *)

type t = {
  module_name : string;
  technology : string;
  devices : int;
  nets : int;
  ports : int;
  sc_rows : int;
  sc_tracks : int;
  sc_feed_throughs : int;
  sc_width : float;
  sc_height : float;
  sc_area : float;
  sc_aspect : float;
  fc_exact_area : float;
  fc_exact_aspect : float;
  fc_average_area : float;
  fc_average_aspect : float;
  shapes : (float * float) list;
      (** candidate module shapes for the floor planner (width, height) *)
}

type of_report_error =
  | Missing_methods of { module_name : string }
      (** the report lacks a successful [stdcell], [fullcustom-exact] or
          [fullcustom-average] result (a narrower [--methods] set cannot
          feed the floor planner) *)
  | Non_finite of { module_name : string; field : string; value : float }
      (** an estimate field is nan or infinite; the text format would
          round-trip it silently into the floor-planner feed *)

val of_report_error_to_string : of_report_error -> string

val of_results :
  module_name:string ->
  technology:string ->
  devices:int ->
  nets:int ->
  ports:int ->
  Mae.Driver.method_result list ->
  (t, of_report_error) result
(** Shapes collect the standard-cell sweep plus the two full-custom
    variants.  Every float field is validated finite. *)

val of_report : Mae.Driver.module_report -> (t, of_report_error) result
(** {!of_results} with the name, technology and counts read off the
    report's circuit. *)

val equal : t -> t -> bool
(** Structural equality with NaN-safe float comparison ([Float.equal]'s
    total order), so [equal r r] holds for every record. *)

val pp : Format.formatter -> t -> unit

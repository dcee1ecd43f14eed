(** The estimate database handed to the floor planner (Figure 1's output).

    A store keeps one record per module name and round-trips through a
    line-oriented text format. *)

type t

val create : unit -> t

val add : t -> Record.t -> unit
(** Replaces any record with the same module name. *)

val find : t -> string -> Record.t option

val names : t -> string list
(** Sorted. *)

val records : t -> Record.t list
(** Sorted by module name. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses what {!to_string} produces. *)

val save : t -> path:string -> (unit, string) result
(** {!to_string} into [path], replaced whole: a save cut short leaves
    the old snapshot as it was ({!Mae_obs.Atomic_file}). *)

val load : path:string -> (t, string) result

(** A mutable collection of named fabrication processes.

    Figure 1 of the paper shows a process data base feeding both
    estimators; a registry starts pre-loaded with the built-in processes
    and accepts additional ones from [.tech] files. *)

type t

val create : ?builtins:bool -> unit -> t
(** [create ()] contains the {!Builtin} processes; pass [~builtins:false]
    for an empty registry. *)

val add : t -> Process.t -> unit
(** Replaces any same-named process. *)

val version : t -> int
(** Counts the {!add}s so far, so it changes whenever a process is
    added or replaced.  A cache of answers computed through the registry
    keys on it to drop them when a process changes. *)

val load_string : t -> string -> (int, Tech_parser.error) result
(** Parse [.tech] text and add every process; returns how many were
    added. *)

val load_file : t -> string -> (int, Tech_parser.error) result

val find : t -> string -> Process.t option

val find_exn : t -> string -> Process.t
(** Raises [Not_found]. *)

val names : t -> string list
(** Sorted. *)

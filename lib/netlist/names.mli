(** Hash tables keyed by names: {!String.equal} and {!String.hash},
    with no polymorphic compare or hash on the lookup path.  Every name
    table of circuit construction ({!Circuit.make}'s uniqueness checks,
    {!Builder}) is one of these. *)

include Hashtbl.S with type key = string

val fresh : unit t -> string -> bool
(** [fresh seen name] records [name] in [seen] and tells whether it was
    new; one hash. *)

(** Equations (2)-(3): the number of rows a net's components occupy.

    Both row-span models are the occupancy of [balls] components thrown
    uniformly into [rows] rows.  The paper's model (equation 2, with
    b_k(i) = surj(k, i) at k = min(n, D)) throws [min rows degree] of
    them; the exact model throws all [degree].

    The distribution comes from the all-positive recurrence
    P_t(i) = P_{t-1}(i) * i/n + P_{t-1}(i-1) * (n-i+1)/n, one step per
    ball.  Every term is a non-negative product, so there is no
    cancellation at any size: the inclusion-exclusion sums it replaces
    lost all precision once min(rows, degree) passed about 30. *)

val dist : rows:int -> balls:int -> Dist.t
(** Distribution of the number of occupied rows, over support
    [1 .. min rows balls], computed afresh on every call.  Raises
    [Invalid_argument] if [rows < 1] or [balls < 1]. *)

val expected_ceil : rows:int -> balls:int -> int
(** Equation (3): E(i) rounded up, i.e. [Dist.expectation_ceil] of
    {!dist}, served from the process-wide {!table}.  Raises
    [Invalid_argument] if [rows < 1] or [balls < 1]. *)

val bound : int
(** Keys with [rows < bound] and [balls < bound] are kept in a {!Table};
    any other key is computed on every call and kept nowhere. *)

(** A flat memo of {!expected_ceil} for keys inside the bound, filled
    entry by entry.

    An entry is computed on its first read and kept; [0] marks an entry
    not yet computed, since E(i) >= 1 for every key.  Nothing is
    computed when the table is made.

    Reads from several domains are safe without a lock.  Two domains
    that read a fresh entry at once may both compute it; both get the
    same integer from the same deterministic computation, and an entry
    is one byte, written and read whole, so every reader sees either
    the [0] mark (and computes the value itself) or that integer. *)
module Table : sig
  type t

  val create : unit -> t
  (** A table with every entry not yet computed. *)

  val expected_ceil : t -> rows:int -> balls:int -> int
  (** {!expected_ceil} through this table. *)

  val filled : t -> int
  (** How many entries have been computed. *)

  val clear : t -> unit
  (** Mark every entry not yet computed.  Safe while other domains
      read: a reader that sees the mark recomputes the same value. *)
end

val table : Table.t
(** The process-wide table behind {!expected_ceil}. *)

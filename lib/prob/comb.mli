(** Combinatorics for the estimator's probability models.

    Factorials and binomials are exact where they fit in 63 bits and
    evaluated in log space beyond, so the binomial of equations
    (10)-(11) stays stable for modules with many nets.  The surjection
    counts and the b-recurrence of equation (2) are the test oracles
    for {!Occupancy}. *)

val log_factorial : int -> float
(** [log_factorial n] = ln(n!).  Backed by an immutable table built at
    module initialization, so it is safe to call from any number of
    domains concurrently.  Raises [Invalid_argument] on a negative
    argument. *)

val log_choose : int -> int -> float
(** [log_choose n k] = ln(C(n,k)); [neg_infinity] when [k < 0 || k > n]. *)

val choose : int -> int -> float
(** C(n,k) as a float: the exact integer product whenever it fits in 63
    bits (every n up to ~61 for central k, much further for small k),
    exp/log only beyond that.  Arguments with [n < 128] -- every row
    and degree the estimator's hot loops reach -- are served from a
    process-wide {!Table}, so the fast path is one bounds check and an
    array load with bit-identical results. *)

(** A flat float memo of C(n,k) for [n < 128], filled entry by entry.

    An entry is computed by the direct computation on its first read and
    kept; [0.] marks an entry not yet computed, since every C(n,k) with
    [0 <= k <= n] is at least 1.  Nothing is computed when the table is
    made, so a process that never asks for a binomial pays only for one
    zeroed array.

    Reads from several domains are safe without a lock.  Two domains
    that read a fresh entry at once may both compute it; both get the
    same bits from the same deterministic computation, and an entry is
    one 64-bit word, written and read whole, so every reader sees either
    the [0.] mark (and computes the value itself) or those bits. *)
module Table : sig
  type t

  val create : unit -> t
  (** A table with every entry not yet computed. *)

  val choose : t -> int -> int -> float
  (** {!choose} through this table: bit-identical to it for every
      argument. *)

  val filled : t -> int -> int -> bool
  (** Whether entry [(n, k)] has been computed; requires
      [0 <= k <= n < 128]. *)
end

val choose_int : int -> int -> int
(** Exact C(n,k) by the rising product; raises [Invalid_argument] if an
    intermediate would overflow a 63-bit integer. *)

val surjections : int -> int -> float
(** [surjections d i] counts the functions from a [d]-element set onto an
    [i]-element set (each of the [i] rows receives at least one of the [d]
    components).  Computed by inclusion-exclusion, whose alternating sum
    loses all precision once [i] passes about 30; the estimator takes
    its occupancy distribution from {!Occupancy}, and this stays as a
    test oracle. *)

val paper_b : k:int -> int -> float
(** [paper_b ~k i] is the paper's b[i] recurrence (equation 2):
    b[1] = 1, b[i] = i^k - sum_{j=1}^{i-1} C(i,j) * b[j].
    When [k >= i] this equals [surjections k i].  It cancels like
    {!surjections} and is kept as a test oracle too. *)

val float_pow : float -> int -> float
(** [float_pow x n] = x^n for n >= 0 by binary exponentiation. *)

(** The one name table from the HDL lexer to the circuit: names to dense
    int ids, handed out in order of first sight (so no id depends on the
    hash or its seed).  Open addressing with linear probing over a
    power-of-two slot array at most half full; a name's slot is the low
    bits of its hash, and a slot's full hash is compared before bytes.

    {b Hash.}  [h = (h * b + byte) mod p] over the bytes from [h = 1],
    with [p = 2{^ 31} - 1] and a base [b] in [\[2, 2{^ 30})] drawn once
    per process from [Random.State.make_self_init ()]: one native
    multiply and one fold, [(x land p) + (x lsr 31)], per byte.  Two
    distinct names of at most [L] bytes hash alike for at most [L]
    bases.  Modulo a power of two no base would help (the two 32-byte
    Thue–Morse words agree in their low 19 bits under every odd
    multiplier), nor would seeding only the start value (that adds a
    term that depends on the length alone).  [String.hash] (MurmurHash3)
    is unseeded, and seed-independent multicollisions of it are
    published (Aumasson, Bernstein and Boßlet, "Hash-flooding DoS
    reloaded", 29C3, 2012).

    {b Worst case.}  [k] names whose hashes agree in the slot bits share
    a probe run and cost O(k{^ 2}) integer compares.  A sender who does
    not know [b] can build such names only by chance; [b] is never
    printed, but one who learned it (say, by timing many requests to one
    process) could. *)

type t

val create : ?seed:int -> int -> t
(** [create n]: an empty table sized for about [n] names; it grows.
    [seed] fixes the base, for tests; by default it is the process's. *)

val intern : t -> string -> int
(** The name's id in the current space, adding it as the next id if new. *)

val fresh : t -> string -> bool
(** {!intern}s the name and tells whether it was new. *)

val find : t -> string -> int
(** The name's id in the current space, or [-1]. *)

val count : t -> int
(** Names in the current space: its ids are [0 .. count t - 1]. *)

val name : t -> int -> string
(** Raises [Invalid_argument] outside [0 .. count t - 1]. *)

val names : t -> string array

val reset : t -> unit
(** Opens a fresh id space in O(1): the next name gets id 0. *)

val step : t -> int -> char -> int
(** [step t h c]: the hash after byte [c] of a name hashed [h] so far; a
    scanner folds it over a name's bytes from [1] in its own pass, then
    calls [intern_sub t text i j h] for the name [text.[i .. j - 1]],
    which takes a substring only if the name is new. *)

val intern_sub : t -> string -> int -> int -> int -> int

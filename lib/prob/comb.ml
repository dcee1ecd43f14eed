let table_size = 4096

(* Built eagerly at module initialization (single-domain, before any
   [Domain.spawn] can happen) and never mutated afterwards, so reads are
   safe from any number of domains.  The previous [lazy] version could
   raise [Lazy.Undefined] when first forced from two domains at once. *)
let log_factorial_table =
  let t = Array.make table_size 0. in
  for n = 1 to table_size - 1 do
    t.(n) <- t.(n - 1) +. Float.log (Float.of_int n)
  done;
  t

(* Stirling's series with three correction terms; accurate to ~1e-10 for
   n >= table_size. *)
let stirling n =
  let x = Float.of_int n in
  ((x +. 0.5) *. Float.log x) -. x
  +. (0.5 *. Float.log (2. *. Float.pi))
  +. (1. /. (12. *. x))
  -. (1. /. (360. *. (x ** 3.)))

let log_factorial n =
  if n < 0 then invalid_arg "Comb.log_factorial: negative argument";
  if n < table_size then log_factorial_table.(n) else stirling n

let log_choose n k =
  if k < 0 || k > n then Float.neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let choose_int n k =
  if k < 0 || k > n then 0
  else begin
    let k = Stdlib.min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else begin
        let next = acc * (n - k + i) in
        if next < 0 || next / (n - k + i) <> acc then
          invalid_arg "Comb.choose_int: overflow";
        go (next / i) (i + 1)
      end
    in
    go 1 1
  end

let choose_slow n k =
  if k < 0 || k > n then 0.
  else
    (* The exact integer product is used for every argument it can
       represent: [choose_int] checks its own intermediates, so the
       threshold is the true 63-bit overflow limit rather than an
       arbitrary small-n cutoff (the old [n <= 30] cliff left e.g.
       C(31,15) to exp/log round-off).  Only genuinely huge binomials
       fall back to log space. *)
    match choose_int n k with
    | v -> Float.of_int v
    | exception Invalid_argument _ -> Float.exp (log_choose n k)

(* Every C(n,k) the estimator's hot loops reach -- rows and degrees are
   small integers -- served from one flat float table, each entry filled
   from [choose_slow] on its first read (see comb.mli for why a race
   between domains is benign).  Filling all 8 256 entries at module
   initialization cost every process about a millisecond of start-up. *)
let choose_table_bound = 128

module Table = struct
  type t = float array

  let create () = Array.make (choose_table_bound * choose_table_bound) 0.

  let filled t n k = t.((n * choose_table_bound) + k) <> 0.

  let choose t n k =
    if k < 0 || k > n then 0.
    else if n < choose_table_bound then begin
      let i = (n * choose_table_bound) + k in
      let v = Array.unsafe_get t i in
      if v <> 0. then v
      else begin
        let v = choose_slow n k in
        Array.unsafe_set t i v;
        v
      end
    end
    else choose_slow n k
end

let choose_table = Table.create ()
let choose n k = Table.choose choose_table n k

let float_pow x n =
  if n < 0 then invalid_arg "Comb.float_pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then acc *. base else acc in
      go acc (base *. base) (n lsr 1)
    end
  in
  go 1. x n

(* Inclusion-exclusion: surj(d,i) = sum_{j=0}^{i} (-1)^j C(i,j) (i-j)^d *)
let surjections d i =
  if d < 0 || i < 0 then invalid_arg "Comb.surjections: negative argument";
  if i = 0 then (if d = 0 then 1. else 0.)
  else if d < i then 0.
  else begin
    let total = ref 0. in
    for j = 0 to i do
      let sign = if j land 1 = 0 then 1. else -1. in
      total := !total +. (sign *. choose i j *. float_pow (Float.of_int (i - j)) d)
    done;
    Float.max 0. !total
  end

let paper_b ~k i =
  if i < 1 then invalid_arg "Comb.paper_b: i must be >= 1";
  let b = Array.make (i + 1) 0. in
  b.(1) <- 1.;
  for m = 2 to i do
    let subtract = ref 0. in
    for j = 1 to m - 1 do
      subtract := !subtract +. (choose m j *. b.(j))
    done;
    b.(m) <- float_pow (Float.of_int m) k -. !subtract
  done;
  b.(i)

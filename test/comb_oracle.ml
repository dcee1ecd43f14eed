(* The direct C(n,k) computation as Mae_prob.Comb filled its table
   eagerly before entries were filled on first read: the exact 63-bit
   rising product where it fits, exp of log-factorial differences
   beyond.  Kept here, apart from the library, as the oracle the lazily
   filled table must match bit for bit. *)

let log_factorial_table =
  let t = Array.make 4096 0. in
  for n = 1 to 4095 do
    t.(n) <- t.(n - 1) +. Float.log (Float.of_int n)
  done;
  t

let choose_int n k =
  let k = Stdlib.min k (n - k) in
  let rec go acc i =
    if i > k then Some acc
    else
      let next = acc * (n - k + i) in
      if next < 0 || next / (n - k + i) <> acc then None
      else go (next / i) (i + 1)
  in
  go 1 1

(* requires 0 <= k <= n < 4096 *)
let choose n k =
  match choose_int n k with
  | Some v -> Float.of_int v
  | None ->
      Float.exp
        (log_factorial_table.(n) -. log_factorial_table.(k)
        -. log_factorial_table.(n - k))

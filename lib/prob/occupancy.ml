let check ~rows ~balls =
  if rows < 1 then invalid_arg "Occupancy: rows < 1";
  if balls < 1 then invalid_arg "Occupancy: balls < 1"

(* p.(i) holds P_t(i) after t balls.  Updating i from the top down
   reads P_{t-1}(i - 1) before it is overwritten.  P_t(0) = 0 for every
   t >= 1, so p.(0) only seeds the first step. *)
let dist ~rows ~balls =
  check ~rows ~balls;
  let support = Stdlib.min rows balls in
  let n = Float.of_int rows in
  let p = Array.make (support + 1) 0. in
  p.(0) <- 1.;
  for t = 1 to balls do
    for i = Stdlib.min t support downto 1 do
      p.(i) <-
        ((p.(i) *. Float.of_int i) +. (p.(i - 1) *. Float.of_int (rows - i + 1)))
        /. n
    done;
    p.(0) <- 0.
  done;
  Dist.of_sorted_weights
    ~outcomes:(Array.init support (fun j -> j + 1))
    ~weights:(Array.sub p 1 support)

let compute ~rows ~balls = Dist.expectation_ceil (dist ~rows ~balls)

(* Batch-mixed modules reach degree 98 and, through the gate array's
   row doubling, 640 rows; most of their keys past 128 rows have a
   small degree and cost a few hundred nanoseconds to compute. *)
let bound = 128

(* A ceiling is at most min rows balls < bound = 128, so each cell is
   one byte: the whole table is 16 KiB. *)
module Table = struct
  type t = Bytes.t

  let create () = Bytes.make (bound * bound) '\000'

  let expected_ceil t ~rows ~balls =
    check ~rows ~balls;
    if rows < bound && balls < bound then begin
      let i = (rows * bound) + balls in
      let v = Char.code (Bytes.unsafe_get t i) in
      if v <> 0 then v
      else begin
        let v = compute ~rows ~balls in
        Bytes.unsafe_set t i (Char.unsafe_chr v);
        v
      end
    end
    else compute ~rows ~balls

  let filled t =
    let n = ref 0 in
    Bytes.iter (fun c -> if c <> '\000' then incr n) t;
    !n

  let clear t = Bytes.fill t 0 (Bytes.length t) '\000'
end

let table = Table.create ()
let expected_ceil ~rows ~balls = Table.expected_ceil table ~rows ~balls

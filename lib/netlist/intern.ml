(* Names get global ids in order of first sight; [first] is the first
   global id of the current space, so a slot holding an id below
   [first] is free, and opening a space clears nothing. *)
type t = {
  multiplier : int;  (** the base [b] of the hash *)
  mutable names : string array;  (** global id -> name *)
  mutable hashes : int array;  (** global id -> hash of its name *)
  mutable count : int;  (** global ids handed out *)
  mutable first : int;
  mutable slots : int array;  (** global ids, -1 if never used; length a power of two *)
}

let prime = 0x7fffffff

let draw state = 2 + Random.State.int state ((1 lsl 30) - 2)

let process_multiplier = draw (Random.State.make_self_init ())

(* The first of [k], [2k], [4k], ... that is at least [n]. *)
let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let create ?seed n =
  let multiplier =
    match seed with
    | Some s -> draw (Random.State.make [| s |])
    | None -> process_multiplier
  in
  let capacity = pow2_above n 8 in
  {
    multiplier;
    names = Array.make capacity "";
    hashes = Array.make capacity 0;
    count = 0;
    first = 0;
    slots = Array.make (2 * capacity) (-1);
  }

(* [h < 2^32] and [multiplier < 2^30], so [x < 2^62 - 2^32] and the
   fold brings it back below [2^32]. *)
let step t h c =
  let x = (h * t.multiplier) + Char.code c in
  (x land prime) + (x lsr 31)

(* [h] folded over the bytes of [s] from [k] on. *)
let rec hash t s k h =
  if k = String.length s then h else hash t s (k + 1) (step t h (String.unsafe_get s k))

let count t = t.count - t.first

let name t id =
  if id < 0 || id >= count t then invalid_arg "Intern.name: id out of range";
  t.names.(t.first + id)

let names t = Array.sub t.names t.first (count t)

let reset t = t.first <- t.count

(* The first free slot from [s] on, in the current space. *)
let rec free_slot t mask s =
  if t.slots.(s) < t.first then s else free_slot t mask ((s + 1) land mask)

(* Doubles the slot array and re-places the current space's ids. *)
let grow_slots t =
  let capacity = 2 * Array.length t.slots in
  t.slots <- Array.make capacity (-1);
  let mask = capacity - 1 in
  for id = t.first to t.count - 1 do
    t.slots.(free_slot t mask (t.hashes.(id) land mask)) <- id
  done

(* [a] in an array twice as long, filled with [x] past its end. *)
let doubled a x =
  let b = Array.make (2 * Array.length a) x in
  Array.blit a 0 b 0 (Array.length a);
  b

let add t name h =
  if 2 * (count t + 1) > Array.length t.slots then grow_slots t;
  if t.count = Array.length t.names then begin
    t.names <- doubled t.names "";
    t.hashes <- doubled t.hashes 0
  end;
  let id = t.count in
  let mask = Array.length t.slots - 1 in
  t.slots.(free_slot t mask (h land mask)) <- id;
  t.names.(id) <- name;
  t.hashes.(id) <- h;
  t.count <- id + 1;
  id - t.first

(* [s.[k ..]] equals [text.[i + k .. j - 1]], [s] being [j - i] long *)
let rec same_from s text i j k =
  i + k >= j
  || Char.equal (String.unsafe_get s k) (String.unsafe_get text (i + k))
     && same_from s text i j (k + 1)

(* The global id of the name [text.[i .. j - 1]], whose hash is [h],
   probing from slot [s]; [-1] at the first free slot. *)
let rec probe t text i j h mask s =
  (* [s] is masked and [first <= id < count]: both in range *)
  let id = Array.unsafe_get t.slots s in
  if id < t.first then -1
  else if
    Array.unsafe_get t.hashes id = h
    &&
    let name = Array.unsafe_get t.names id in
    String.length name = j - i && same_from name text i j 0
  then id
  else probe t text i j h mask ((s + 1) land mask)

let find_sub t text i j h =
  let mask = Array.length t.slots - 1 in
  match probe t text i j h mask (h land mask) with -1 -> -1 | id -> id - t.first

let intern_sub t text i j h =
  match find_sub t text i j h with
  | -1 ->
      add t (if i = 0 && j = String.length text then text else String.sub text i (j - i)) h
  | id -> id

let find t name = find_sub t name 0 (String.length name) (hash t name 0 1)

let intern t name = intern_sub t name 0 (String.length name) (hash t name 0 1)

let fresh t name =
  let before = count t in
  intern t name = before

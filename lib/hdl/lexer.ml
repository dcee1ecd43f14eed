type error = { line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "%d:%d: %s" e.line e.column e.message

exception Error of error

type t = {
  text : string;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (** offset of the current line's first byte *)
  mutable comment_column : int;
      (** column of a comment that runs to the end of the text, else 0:
          a comment does not advance the column, so [Eof] after one sits
          where the comment began *)
  mutable token_line : int;
  mutable token_column : int;
  (* The intern table.  Names get global ids in order of first sight;
     [base] is the first global id of the current id space, so a slot
     holding an id below [base] is free, and opening a space clears
     nothing. *)
  mutable names : string array;  (** global id -> name *)
  mutable hashes : int array;  (** global id -> [hash] of its name *)
  mutable count : int;  (** global ids handed out *)
  mutable base : int;
  mutable slots : int array;  (** global ids; length a power of two *)
  mutable ident : int;  (** global id of the last identifier *)
}

(* The first of [k], [2k], [4k], ... that is at least [n]. *)
let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

(* Printed HDL holds about one distinct name per 20 to 40 bytes, so a
   table sized from the text rarely grows. *)
let create text =
  let names = pow2_above (min 4096 (String.length text / 20)) 64 in
  {
    text;
    pos = 0;
    line = 1;
    line_start = 0;
    comment_column = 0;
    token_line = 1;
    token_column = 1;
    names = Array.make names "";
    hashes = Array.make names 0;
    count = 0;
    base = 0;
    slots = Array.make (2 * names) (-1);
    ident = 0;
  }

let token_line t = t.token_line

let token_column t = t.token_column

let ident t = t.ident - t.base

let ident_name t = t.names.(t.ident)

let start_module t = t.base <- t.count

let idents t = Array.sub t.names t.base (t.count - t.base)

let multiplier = 0x100000001b3

let hash s =
  let h = ref 0 in
  for k = 0 to String.length s - 1 do
    h := (!h * multiplier) + Char.code (String.unsafe_get s k)
  done;
  !h

(* [s.[k ..]] equals [text.[i + k .. j - 1]], [s] being [j - i] long *)
let rec same_from s text i j k =
  i + k >= j
  || Char.equal (String.unsafe_get s k) (String.unsafe_get text (i + k))
     && same_from s text i j (k + 1)

(* The first free slot from [s] on, in the current id space. *)
let rec free_slot t mask s =
  if t.slots.(s) < t.base then s else free_slot t mask ((s + 1) land mask)

(* Doubles the slot array and re-places the current space's ids. *)
let grow_slots t =
  let capacity = 2 * Array.length t.slots in
  t.slots <- Array.make capacity (-1);
  let mask = capacity - 1 in
  for id = t.base to t.count - 1 do
    t.slots.(free_slot t mask (t.hashes.(id) land mask)) <- id
  done

let add t i j h =
  if 2 * (t.count - t.base + 1) > Array.length t.slots then grow_slots t;
  if t.count = Array.length t.names then begin
    let n = 2 * t.count in
    let names = Array.make n "" and hashes = Array.make n 0 in
    Array.blit t.names 0 names 0 t.count;
    Array.blit t.hashes 0 hashes 0 t.count;
    t.names <- names;
    t.hashes <- hashes
  end;
  let id = t.count in
  let mask = Array.length t.slots - 1 in
  t.slots.(free_slot t mask (h land mask)) <- id;
  t.names.(id) <- String.sub t.text i (j - i);
  t.hashes.(id) <- h;
  t.count <- id + 1;
  id

(* The global id of the name [text.[i .. j - 1]], whose hash is [h],
   probing from slot [s]. *)
let rec intern t i j h mask s =
  (* [s] is masked and [base <= id < count]: both in range *)
  let id = Array.unsafe_get t.slots s in
  if id < t.base then add t i j h
  else if
    Array.unsafe_get t.hashes id = h
    &&
    let name = Array.unsafe_get t.names id in
    String.length name = j - i && same_from name t.text i j 0
  then id
  else intern t i j h mask ((s + 1) land mask)

(* [ident_chars.[Char.code c]] is ['1'] where [c] may be part of an
   identifier: one load per byte of a name. *)
let ident_chars =
  String.init 256 (fun k ->
      match Char.chr k with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' -> '1'
      | _ -> '0')

let is_ident c = Char.equal (String.unsafe_get ident_chars (Char.code c)) '1'

(* [text.[i + k .. i + n - 1]] equals [kw.[k .. n - 1]], [n] the
   length of [kw]; the caller has checked that the word is [n] long. *)
let rec rest_matches text i kw k =
  k >= String.length kw
  || (Char.equal text.[i + k] kw.[k] && rest_matches text i kw (k + 1))

(* The token for the word [text.[i .. j - 1]], whose hash is [h]:
   keywords are told apart by length and first byte, so only
   identifiers are interned. *)
let word t text i j h =
  match (j - i, text.[i]) with
  | 3, 'n' when rest_matches text i "net" 1 -> Token.Net
  | 4, 'p' when rest_matches text i "port" 1 -> Token.Port
  | 6, 'm' when rest_matches text i "module" 1 -> Token.Module
  | 6, 'd' when rest_matches text i "device" 1 -> Token.Device
  | 10, 't' when rest_matches text i "technology" 1 -> Token.Technology
  | _ ->
      let mask = Array.length t.slots - 1 in
      t.ident <- intern t i j h mask (h land mask);
      Token.Ident

let rec skip_line text len i =
  if i < len && text.[i] <> '\n' then skip_line text len (i + 1) else i

let punct t i tok =
  t.pos <- i + 1;
  tok

(* An identifier or keyword starts at [i]: one pass finds its end and
   its [hash], folded into the scan. *)
let scan_word t text len i =
  let j = ref (i + 1) and h = ref (Char.code (String.unsafe_get text i)) in
  while !j < len && is_ident (String.unsafe_get text !j) do
    h := (!h * multiplier) + Char.code (String.unsafe_get text !j);
    incr j
  done;
  t.pos <- !j;
  word t text i !j !h

let rec scan t text len i =
  if i >= len then begin
    t.pos <- i;
    t.token_line <- t.line;
    t.token_column <-
      (if t.comment_column > 0 then t.comment_column else i - t.line_start + 1);
    Token.Eof
  end
  else
    match text.[i] with
    | '\n' ->
        t.line <- t.line + 1;
        t.line_start <- i + 1;
        scan t text len (i + 1)
    | ' ' | '\t' | '\r' -> scan t text len (i + 1)
    | '#' -> comment t text len i
    | '/' when i + 1 < len && text.[i + 1] = '/' -> comment t text len i
    | c -> begin
        t.token_line <- t.line;
        t.token_column <- i - t.line_start + 1;
        match c with
        | '{' -> punct t i Token.Lbrace
        | '}' -> punct t i Token.Rbrace
        | '(' -> punct t i Token.Lparen
        | ')' -> punct t i Token.Rparen
        | ',' -> punct t i Token.Comma
        | ';' -> punct t i Token.Semi
        | c when is_ident c -> scan_word t text len i
        | c ->
            raise
              (Error
                 {
                   line = t.line;
                   column = t.token_column;
                   message = Printf.sprintf "unexpected character %C" c;
                 })
      end

and comment t text len i =
  let j = skip_line text len i in
  if j >= len then t.comment_column <- i - t.line_start + 1;
  scan t text len j

let next t = scan t t.text (String.length t.text) t.pos

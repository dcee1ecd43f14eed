(** Dependency-free JSON support for the telemetry artifacts and the
    serve daemon's requests, responses and access log.

    The exporters in {!Trace} and {!Metrics} build their documents with
    [Buffer], {!write} and {!escape}; this module's parser lets tests
    and the [@obs-smoke] gate check those artifacts are well formed
    without pulling a JSON library into the build, and decodes every
    serve request, in place from the connection buffer ({!parse_span}). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val escape : string -> string
(** [escape s] is [s] as a quoted JSON string literal (quotes
    included), with control characters, backslashes and quotes
    escaped. *)

val write : Buffer.t -> t -> unit
(** Append the compact one-line encoding of a document to a buffer,
    escaping each string straight into it.  Integer-valued numbers
    below 1e15 in magnitude print as [Printf "%.0f"] would, every other
    number as [Printf "%.17g"] would, so floats round-trip. *)

val encode : t -> string
(** {!write} into a fresh string.  [parse (encode v)] is [Ok v] for
    any [v] whose numbers survive float round-tripping. *)

val parse : string -> (t, string) result
(** Full-grammar JSON parser (objects, arrays, numbers, escapes
    including surrogate pairs).  Rejects trailing garbage. *)

val parse_span : string -> pos:int -> len:int -> (t, string) result
(** [parse_span text ~pos ~len] is [parse (String.sub text pos len)],
    read in place: the same value, or the same error text with offsets
    counted from [pos].  No decoded string shares memory with [text], so
    a caller may parse a span of a buffer it mutates later
    ([Bytes.unsafe_to_string]).  Raises [Invalid_argument] when the span
    is not inside [text]. *)

val member : string -> t -> t option
(** First field of that name, when the value is an object. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option

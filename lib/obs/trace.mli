(** Exporters over the spans recorded by {!Span}.

    Call after the traced work has finished (the batch engine joins
    its worker domains before returning, so any point after
    [run_circuits] is safe). *)

val to_chrome_string : unit -> string
(** The whole trace as Chrome trace-event JSON ("X" complete events,
    one [tid] lane per domain, timestamps rebased to the earliest
    span), merged with the runtime lens's recent GC pause windows
    ({!Runtime.gc_events}).  Events named ["gc.*"] are exported under
    the ["gc"] category, everything else under ["mae"].  Load in
    [chrome://tracing] or Perfetto. *)

val write_chrome : path:string -> (unit, string) result
(** {!to_chrome_string} into [path], replaced whole ({!Atomic_file}). *)

type flame_row = {
  span_name : string;
  calls : int;
  total_s : float;  (** sum of durations, child spans included *)
  self_s : float;  (** sum of durations minus time in child spans *)
}

val flame : unit -> flame_row list
(** Aggregate by span name, hottest self-time first.  Self times are
    disjoint by construction, so they sum to the traced total -- a
    true per-stage breakdown.  GC windows are left out: they land
    inside pipeline spans, so folding them in would double-count self
    time. *)

val flame_summary : unit -> string
(** {!flame} as an aligned text table with a self-time total row. *)

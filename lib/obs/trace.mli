(** Exporters over the spans recorded by {!Span}.

    Call after the traced work has finished (the batch engine joins
    its worker domains before returning, so any point after
    [run_circuits] is safe). *)

val register_provider : (unit -> Span.event list) -> unit
(** Add an extra span source consulted by {!to_chrome_string} /
    {!write_chrome} at export time (the runtime lens registers its GC
    phase events here).  Providers must be cheap and return [] when
    idle.  Events named ["gc.*"] are exported under the ["gc"]
    category; everything else under ["mae"].  The flame summary does
    not include provider events (GC pauses land inside pipeline
    spans, so folding them in would double-count self time). *)

val to_chrome_string : unit -> string
(** The whole trace as Chrome trace-event JSON ("X" complete events,
    one [tid] lane per domain, timestamps rebased to the earliest
    span), merged with every registered provider's events.  Load in
    [chrome://tracing] or Perfetto. *)

val write_chrome : path:string -> (unit, string) result

type flame_row = {
  span_name : string;
  calls : int;
  total_s : float;  (** sum of durations, child spans included *)
  self_s : float;  (** sum of durations minus time in child spans *)
}

val flame : unit -> flame_row list
(** Aggregate by span name, hottest self-time first.  Self times are
    disjoint by construction, so they sum to the traced total -- a
    true per-stage breakdown. *)

val flame_summary : unit -> string
(** {!flame} as an aligned text table with a self-time total row. *)

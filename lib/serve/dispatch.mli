(** The bounded submission queue in front of the engine.

    One FIFO queue for every request-plane frame keeps each
    connection's responses in its own arrival order.  A {!tick} takes
    a queue prefix, runs its estimate jobs as engine batches (one
    {!Mae_engine.run_grouped} fan-out per method selection, one group
    per request, a lone request included) and answers every job with
    the full per-request bookkeeping: seq/rid, latency sketch +
    exemplar, SLO events, tail capture, the access-log record,
    the response write.  A request that has its engine batch to itself
    gets that batch's kernel-cache traffic in its access-log record.

    Admission control: at the queue-depth watermark a new estimate is
    answered 503 + Retry-After without estimation.  Shed requests
    count into requests_total/failed and their own counter but burn
    neither the latency nor the error SLO. *)

module Json = Mae_obs.Json

type config = {
  jobs : int;
  registry : Mae_tech.Registry.t;
  inject_sleep_field : bool;
  queue_watermark : int;  (** queued estimates at/over this shed *)
  max_batch : int;  (** estimate jobs coalesced per engine batch *)
}

type t

val create :
  config:config ->
  transport:Transport.t ->
  pool:Mae_engine.Pool.t option ->
  cas:Mae_db.Cas.t option ->
  slo_latency:Mae_obs.Slo.t ->
  slo_errors:Mae_obs.Slo.t ->
  t

val submit_estimate :
  t -> Transport.conn -> Protocol.framing -> bytes:int ->
  Protocol.estimate -> unit

val submit_invalid :
  t -> Transport.conn -> Protocol.framing -> bytes:int ->
  id:Json.t -> error:string -> unit

val submit_reject :
  t -> Transport.conn -> Protocol.framing -> Protocol.response -> unit
(** Queue a pre-built response (oversize, bad framing, 405) so it keeps
    its place in the connection's FIFO order; answered with no request
    accounting. *)

val tick : t -> bool
(** Process one queue prefix (at most [max_batch] estimates plus any
    free riders); [true] when a backlog remains, so the select loop
    polls instead of sleeping. *)

val queue_length : t -> int

(** {1 Registry instruments} (exposed for the obs documents) *)

val requests_total : Mae_obs.Metrics.counter
val requests_ok : Mae_obs.Metrics.counter
val requests_failed : Mae_obs.Metrics.counter
val requests_shed : Mae_obs.Metrics.counter
val request_latency_sketch : Mae_obs.Sketch.t

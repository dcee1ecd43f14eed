(** The bounded submission queue in front of the engine.

    One FIFO queue for every request-plane frame keeps each
    connection's responses in its own arrival order.  A {!tick} pops
    one job and answers it with the full per-request bookkeeping:
    seq/rid, latency sketch + exemplar, tail capture, the access-log
    record, the response write.  An estimate looks each
    module up in the estimate store once, then makes one
    {!Mae_engine.run_circuits_with_stats} call over the misses (none
    when every module hit) on the calling domain, inside its own
    [serve.request] span, and stores each computed result.  It answers
    [cached:true] exactly when it has modules and every one hit; its
    access-log record carries that run's kernel-cache counts.

    Admission control: at the queue-depth watermark a new estimate is
    answered 503 + Retry-After without estimation.  Shed requests
    count into requests_total/failed and their own counter, and stay
    out of the latency sketch and tail capture. *)

module Json = Mae_obs.Json

type config = {
  registry : Mae_tech.Registry.t;
  queue_watermark : int;  (** queued estimates at/over this shed *)
}

type t

val create :
  config:config ->
  transport:Transport.t ->
  cas:Mae_db.Cas.t ->
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
(** Answer the job at the head of the queue; [true] when a backlog
    remains, so the select loop polls (and answers scrapes) before the
    next one instead of sleeping. *)

val queue_length : t -> int

(** {1 Registry instruments} (exposed for the obs documents) *)

val requests_total : Mae_obs.Metrics.counter
val requests_ok : Mae_obs.Metrics.counter
val requests_failed : Mae_obs.Metrics.counter
val requests_shed : Mae_obs.Metrics.counter
val request_latency_sketch : Mae_obs.Sketch.t

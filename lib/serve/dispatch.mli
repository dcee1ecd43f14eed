(** The bounded submission queue in front of the engine.

    One FIFO queue for every request-plane frame keeps each
    connection's responses in its own arrival order.  A {!tick} pops
    one job and answers it with the full per-request bookkeeping:
    seq/rid, latency sketch + exemplar, tail capture, the access-log
    record, the response write.

    An estimate first asks the text index, which maps the digest of a
    request's HDL bytes (with the resolved method names and the
    methodology and process registry versions) to the store keys of its
    modules.  When every one of those is still held, the request is
    answered from the store with no parse and no keying, bytes identical
    to the full path's answer.  Otherwise it parses and looks each
    module up in the estimate store once, then makes one
    {!Mae_engine.run_circuits_with_stats} call over the misses (none
    when every module hit) on the calling domain, inside its own
    [serve.request] span, and stores each computed result.  A request
    the full path answered wholly from the store ([cached:true]) is then
    indexed: every module of it is [Ok] and stored, and its text (or one
    equal to it up to order and whitespace) was answered before.  A
    text seen once takes no index entry, and a request that fails to
    parse, names an unknown process or method, or has a module error is
    never indexed.  The index lives in memory only, under the store's
    LRU cap ([--store-cap]).  A request answers [cached:true] exactly
    when it has modules and every one hit; its access-log record says
    whether the index answered ([indexed]).

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

(** {1 Registry instruments} (exposed for the obs documents) *)

val requests_total : Mae_obs.Metrics.counter
val requests_ok : Mae_obs.Metrics.counter
val requests_failed : Mae_obs.Metrics.counter
val requests_shed : Mae_obs.Metrics.counter
val text_index_hits : Mae_obs.Metrics.counter
val text_index_misses : Mae_obs.Metrics.counter
val text_index_evictions : Mae_obs.Metrics.counter
val request_latency_sketch : Mae_obs.Sketch.t

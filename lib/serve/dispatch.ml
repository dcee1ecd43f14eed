(* Dispatch: the bounded submission queue in front of the engine.

   Every request-plane frame becomes a job in one FIFO queue, so each
   connection's responses come back in its own arrival order even when
   requests from many connections interleave.  A tick pops one job and
   answers it with the full per-request bookkeeping: seq/rid, latency
   sketch + exemplar, tail capture, the access log record, the response
   write.  An estimate job parses its HDL, then looks each
   module up in the estimate store ({!Mae_db.Cas}, owned here and
   nowhere else).  It makes one {!Mae_engine.run_circuits_with_stats}
   call over the misses, or none when every module hit, at the
   engine's default [jobs = 1] on the daemon's one domain, and stores
   each computed result.  All of it runs inside the request's own
   [serve.request] span and request-id scope, so its store and
   kernel-cache counts are its own.

   Admission control lives at the front door: when the queued estimate
   count is at the watermark, a new estimate is answered 503 +
   Retry-After without touching the engine.  A shed request stays out
   of the latency sketch -- its answer measures the queue check, not
   the service -- but it counts into requests_total/failed and its own
   shed counter, so overload shows in /metrics. *)

module Json = Mae_obs.Json
module Log = Mae_obs.Log
module Metrics = Mae_obs.Metrics

(* --- registry instruments (always live, like the engine's) --- *)

let requests_total =
  Metrics.counter "mae_serve_requests_total"
    ~help:"Estimation requests received (one JSON line each)"

let requests_ok =
  Metrics.counter "mae_serve_requests_ok_total"
    ~help:"Requests answered with ok:true (every module estimated)"

let requests_failed =
  Metrics.counter "mae_serve_requests_failed_total"
    ~help:"Requests answered with ok:false (parse, protocol or module error)"

let requests_shed =
  Metrics.counter "mae_serve_requests_shed_total"
    ~help:
      "Estimation requests shed by admission control (queue at the \
       watermark; answered 503 + Retry-After without estimation)"

let queue_depth_gauge =
  Metrics.gauge "mae_serve_queue_depth"
    ~help:"Jobs waiting in the dispatch queue right now"

(* Exemplars carry the request ids of the slowest requests so /metrics
   cross-links to /tracez. *)
let request_latency_sketch =
  Mae_obs.Sketch.create "mae_serve_request_seconds_summary"
    ~help:"Per-request service latency quantiles (GK sketch)"

(* --- response assembly --- *)

(* One JSON value per methodology outcome: the shared dimensions plus a
   few kind-specific extras. *)
let outcome_json (o : Mae.Methodology.outcome) =
  let dims = Mae.Methodology.dims o in
  let base =
    [
      ("ok", Json.Bool true);
      ("kind", Json.String (Mae.Methodology.kind o));
      ("area", Json.Number dims.Mae.Methodology.area);
      ("width", Json.Number dims.Mae.Methodology.width);
      ("height", Json.Number dims.Mae.Methodology.height);
    ]
  in
  let extra =
    match o with
    | Mae.Methodology.Stdcell { auto; sweep } ->
        [
          ("rows", Json.Number (Float.of_int auto.Mae.Estimate.rows));
          ( "sweep_rows",
            Json.Array
              (List.map
                 (fun (s : Mae.Estimate.stdcell) ->
                   Json.Number (Float.of_int s.Mae.Estimate.rows))
                 sweep) );
        ]
    | Mae.Methodology.Gatearray g ->
        [
          ("sites", Json.Number (Float.of_int g.Mae.Gatearray.sites));
          ("routable", Json.Bool g.Mae.Gatearray.routable);
        ]
    | Mae.Methodology.Fullcustom _ | Mae.Methodology.Scalar _ -> []
  in
  Json.Object (base @ extra)

let method_result_json (r : Mae.Driver.method_result) =
  ( Mae.Methodology.name r.methodology,
    match r.outcome with
    | Ok o -> outcome_json o
    | Error e ->
        Json.Object
          [
            ("ok", Json.Bool false);
            ("error", Json.String (Mae.Methodology.error_to_string e));
          ] )

let module_json = function
  | Ok (r : Mae.Driver.module_report) ->
      (* the flat legacy fields stay (when their methodologies ran and
         succeeded) so pre-registry clients keep working; the "methods"
         object is the full per-methodology story. *)
      let legacy =
        (match Mae.Driver.stdcell r with
        | Some sc ->
            [
              ("rows", Json.Number (Float.of_int sc.Mae.Estimate.rows));
              ("stdcell_area", Json.Number sc.Mae.Estimate.area);
              ("stdcell_height", Json.Number sc.Mae.Estimate.height);
              ("stdcell_width", Json.Number sc.Mae.Estimate.width);
            ]
        | None -> [])
        @ (match Mae.Driver.fullcustom_exact r with
          | Some f -> [ ("fullcustom_exact_area", Json.Number f.Mae.Estimate.area) ]
          | None -> [])
        @
        match Mae.Driver.fullcustom_average r with
        | Some f -> [ ("fullcustom_average_area", Json.Number f.Mae.Estimate.area) ]
        | None -> []
      in
      Json.Object
        ([
           ("name", Json.String r.circuit.Mae_netlist.Circuit.name);
           ("technology", Json.String r.circuit.Mae_netlist.Circuit.technology);
         ]
        @ legacy
        @ [
            ("methods", Json.Object (List.map method_result_json r.results));
            ( "method_errors",
              Json.Number
                (Float.of_int (List.length (Mae.Driver.method_failures r))) );
          ])
  | Error e ->
      Json.Object
        [ ("error", Json.String (Format.asprintf "%a" Mae_engine.pp_error e)) ]

(* What one answered request amounts to. *)
type prepared = {
  fields : (string * Json.t) list;  (** after "seq" and "id" *)
  p_ok : bool;
  modules : int;
  modules_ok : int;
  rows_selected_total : int;
  cache_hits : int;  (** kernel-cache traffic of this request's engine run *)
  cache_misses : int;
  cached : bool;
      (** every module of this request was answered from the estimate
          store -- exact per request, from its own per-module lookups *)
  server_error : bool;
      (** true when the failure is the server's fault (an estimator
          crash), as opposed to a malformed request or bad circuit: it
          selects HTTP 500 over 400 *)
}

let failure ?(server_error = false) msg =
  {
    fields = [ ("ok", Json.Bool false); ("error", Json.String msg) ];
    p_ok = false;
    modules = 0;
    modules_ok = 0;
    rows_selected_total = 0;
    cache_hits = 0;
    cache_misses = 0;
    cached = false;
    server_error;
  }

(* One request's results to the response fields.  [kernel] is the
   kernel-cache traffic of its engine run, [(0, 0)] when every module
   came from the store. *)
let prepared_of_results results ~cached ~kernel:(cache_hits, cache_misses) =
  let modules = List.length results in
  let modules_ok = List.length (List.filter Result.is_ok results) in
  (* a module that crashed its estimator is a server fault; a driver
     error (unknown process, invalid circuit) is the request's *)
  let crashed =
    List.exists
      (function Error (Mae_engine.Crashed _) -> true | Ok _ | Error _ -> false)
      results
  in
  let rows =
    List.fold_left
      (fun acc -> function
        | Ok (r : Mae.Driver.module_report) -> begin
            match Mae.Driver.stdcell r with
            | Some sc -> acc + sc.Mae.Estimate.rows
            | None -> acc
          end
        | Error _ -> acc)
      0 results
  in
  {
    fields =
      [
        ("ok", Json.Bool (modules_ok = modules));
        ("cached", Json.Bool cached);
        ("modules", Json.Array (List.map module_json results));
      ];
    p_ok = modules_ok = modules;
    modules;
    modules_ok;
    rows_selected_total = rows;
    cache_hits;
    cache_misses;
    cached;
    server_error = crashed;
  }

(* --- the queue --- *)

type job_kind =
  | J_estimate of Protocol.estimate
  | J_invalid of { id : Json.t; error : string }
  | J_shed of { id : Json.t }
  | J_reject of Protocol.response
      (** answered with no request accounting (oversize, bad framing,
          405) -- queued anyway so the response keeps its place in the
          connection's FIFO order *)

type job = {
  conn : Transport.conn;
  framing : Protocol.framing;
  kind : job_kind;
  t0 : float;  (** arrival instant: latency includes queue wait *)
  bytes : int;
}

type config = {
  registry : Mae_tech.Registry.t;
  queue_watermark : int;  (** queued estimates at/over this shed *)
}

type t = {
  config : config;
  transport : Transport.t;
  cas : Mae_db.Cas.t;
  queue : job Queue.t;
  mutable next_seq : int;
  mutable queued_estimates : int;
}

let create ~config ~transport ~cas =
  {
    config;
    transport;
    cas;
    queue = Queue.create ();
    next_seq = 1;
    queued_estimates = 0;
  }

let sync_depth t =
  Metrics.set queue_depth_gauge (Float.of_int (Queue.length t.queue))

let enqueue t conn framing ~bytes kind =
  let job =
    { conn; framing; kind; t0 = Mae_obs.Clock.monotonic (); bytes }
  in
  Queue.add job t.queue;
  conn.Transport.pending <- conn.Transport.pending + 1;
  sync_depth t

let submit_estimate t conn framing ~bytes (est : Protocol.estimate) =
  if t.queued_estimates >= t.config.queue_watermark then begin
    Metrics.incr requests_shed;
    enqueue t conn framing ~bytes (J_shed { id = est.Protocol.id })
  end
  else begin
    t.queued_estimates <- t.queued_estimates + 1;
    enqueue t conn framing ~bytes (J_estimate est)
  end

let submit_invalid t conn framing ~bytes ~id ~error =
  enqueue t conn framing ~bytes (J_invalid { id; error })

let submit_reject t conn framing response =
  enqueue t conn framing ~bytes:0 (J_reject response)

let queue_length t = Queue.length t.queue

(* --- answering --- *)

let finish t job response =
  job.conn.Transport.pending <- job.conn.Transport.pending - 1;
  Transport.send t.transport job.conn job.framing response

let seq_and_id seq id fields =
  Json.Object
    ((("seq", Json.Number (Float.of_int seq))
      :: (match id with Json.Null -> [] | id -> [ ("id", id) ]))
    @ fields)

(* Full per-request bookkeeping around [outcome]: the thunk runs inside
   the request's [serve.request] span (for an estimate, its parse and
   engine run).  Latency counts from frame arrival, so queue wait is
   part of it. *)
let answer t job ~id outcome =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let rid = "r" ^ string_of_int seq in
  Log.with_request_id rid @@ fun () ->
  Metrics.incr requests_total;
  let t0 = job.t0 in
  let p =
    Mae_obs.Span.with_ ~name:"serve.request" ~attrs:[ ("rid", rid) ] outcome
  in
  let latency = Mae_obs.Clock.monotonic () -. t0 in
  (* the sketch carries the request id as an exemplar so a bad
     quantile in /metrics links back to a trace in /tracez *)
  Mae_obs.Sketch.observe_exemplar request_latency_sketch ~label:rid latency;
  let error =
    if p.p_ok then None
    else begin
      match List.assoc_opt "error" p.fields with
      | Some (Json.String e) -> Some e
      | _ -> Some "request failed"
    end
  in
  (* GC pause time that landed inside this request's window, from the
     runtime lens; 0 (one atomic check) when the lens is off *)
  let gc_s = Mae_obs.Runtime.pause_seconds_since t0 in
  Mae_obs.Capture.record ~rid ~ok:p.p_ok ?error ~gc_s ~latency ~since:t0 ();
  Metrics.incr (if p.p_ok then requests_ok else requests_failed);
  Log.info ~event:"serve.request"
    [
      ("seq", Log.Int seq);
      ("peer", Log.Str job.conn.Transport.peer);
      ("ok", Log.Bool p.p_ok);
      ("modules", Log.Int p.modules);
      ("modules_ok", Log.Int p.modules_ok);
      ("rows_selected", Log.Int p.rows_selected_total);
      ("latency_s", Log.Float latency);
      ("gc_s", Log.Float gc_s);
      ("cache_hits", Log.Int p.cache_hits);
      ("cache_misses", Log.Int p.cache_misses);
      ("cached", Log.Bool p.cached);
      ("bytes_in", Log.Int job.bytes);
    ];
  let status = if p.p_ok then 200 else if p.server_error then 500 else 400 in
  finish t job
    (Protocol.json_response ~status (seq_and_id seq id p.fields))

let shed_retry_after_s = 1

(* A shed request: counted (total + failed + its own counter) and
   logged, but kept out of the latency sketch and tail capture. *)
let answer_shed t job ~id =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let rid = "r" ^ string_of_int seq in
  Log.with_request_id rid @@ fun () ->
  Metrics.incr requests_total;
  Metrics.incr requests_failed;
  let latency = Mae_obs.Clock.monotonic () -. job.t0 in
  Log.info ~event:"serve.request"
    [
      ("seq", Log.Int seq);
      ("peer", Log.Str job.conn.Transport.peer);
      ("ok", Log.Bool false);
      ("shed", Log.Bool true);
      ("modules", Log.Int 0);
      ("modules_ok", Log.Int 0);
      ("rows_selected", Log.Int 0);
      ("latency_s", Log.Float latency);
      ("gc_s", Log.Float 0.);
      ("cache_hits", Log.Int 0);
      ("cache_misses", Log.Int 0);
      ("cached", Log.Bool false);
      ("bytes_in", Log.Int job.bytes);
    ];
  let fields =
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.String
          (Printf.sprintf
             "server overloaded: request queue at watermark; retry after %ds"
             shed_retry_after_s) );
      ("retry_after_s", Json.Number (Float.of_int shed_retry_after_s));
    ]
  in
  finish t job
    (Protocol.json_response ~status:503 ~retry_after_s:shed_retry_after_s
       (seq_and_id seq id fields))

(* --- the estimate path --- *)

(* How the store answered one module: a stored report, a miss under
   [key], or no lookup at all -- an unknown process or method, which
   the engine reports as an error slot. *)
type lookup = Hit of Mae.Driver.module_report | Miss of string | Unkeyed

(* One request's modules: one store lookup each, one engine run over
   the misses (none when every module hit), each computed [Ok] stored,
   and the results back in input order. *)
let estimate_circuits t ?methods circuits =
  let names =
    match
      Mae.Methodology.resolve (Option.value methods ~default:[ "default" ])
    with
    | Ok selected -> Some (List.map Mae.Methodology.name selected)
    | Error _ -> None
  in
  let registry = t.config.registry in
  let lookup (circuit : Mae_netlist.Circuit.t) =
    match (names, Mae_tech.Registry.find registry circuit.technology) with
    | Some methods, Some process -> (
        let key = Mae_db.Cas.key ~methods ~process circuit in
        match Mae_db.Cas.find t.cas ~key ~circuit ~process with
        | Some report -> Hit report
        | None -> Miss key)
    | None, _ | _, None -> Unkeyed
  in
  let lookups = List.map (fun c -> (c, lookup c)) circuits in
  let pending =
    List.filter_map
      (function _, Hit _ -> None | c, (Miss _ | Unkeyed) -> Some c)
      lookups
  in
  let computed, kernel =
    if pending = [] then ([], (0, 0))
    else
      let results, (stats : Mae_engine.stats) =
        Mae_engine.run_circuits_with_stats ?methods ~registry pending
      in
      (results, (stats.cache_hits, stats.cache_misses))
  in
  let rec merge computed = function
    | [] -> []
    | (_, Hit report) :: rest -> Ok report :: merge computed rest
    | (_, l) :: rest -> (
        match computed with
        | r :: computed ->
            (match (l, r) with
            | Miss key, Ok report -> Mae_db.Cas.store t.cas ~key report
            | _ -> ());
            r :: merge computed rest
        | [] -> assert false (* one engine result per pending module *))
  in
  prepared_of_results (merge computed lookups)
    ~cached:(circuits <> [] && pending = [])
    ~kernel

(* One estimate request: its own parse, then its modules. *)
let estimate t (est : Protocol.estimate) =
  match Mae.Driver.string_circuits est.Protocol.hdl with
  | Error e -> failure (Format.asprintf "%a" Mae.Driver.pp_error e)
  | Ok circuits -> (
      try estimate_circuits t ?methods:est.Protocol.methods circuits
      with exn ->
        failure ~server_error:true
          ("estimator crashed: " ^ Printexc.to_string exn))

(* --- the tick --- *)

let tick t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some job ->
      sync_depth t;
      (match job.kind with
      | J_reject response -> finish t job response
      | J_shed { id } -> answer_shed t job ~id
      | J_invalid { id; error } -> answer t job ~id (fun () -> failure error)
      | J_estimate est ->
          t.queued_estimates <- t.queued_estimates - 1;
          answer t job ~id:est.Protocol.id (fun () -> estimate t est));
      not (Queue.is_empty t.queue)

(* Dispatch: the bounded submission queue in front of the engine.

   Every request-plane frame becomes a job in one FIFO queue, so each
   connection's responses come back in its own arrival order even when
   requests from many connections interleave.  A tick pops one job and
   answers it with the full per-request bookkeeping: seq/rid, latency
   sketch + exemplar, tail capture, the access log record, the response
   write.  An estimate job first asks the text index: a request whose
   exact bytes (under the same methods and registries) were answered
   wholly from the store before is answered from it again by the keys
   recorded then, with no parse and no keying.  Otherwise it parses its
   HDL, then looks each module up in the estimate store
   ({!Mae_db.Cas}, owned here and nowhere else).  It makes one
   {!Mae_engine.run_circuits} call over the misses, or none
   when every module hit, at the engine's default [jobs = 1] on the
   daemon's one domain, and stores each computed result.  All of it
   runs inside the request's own [serve.request] span and request-id
   scope, so its store counts are its own.

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

let text_index_hits =
  Metrics.counter "mae_serve_text_index_hits_total"
    ~help:
      "Estimate requests answered by the text index (bytes seen before: \
       no parse, no keying)"

let text_index_misses =
  Metrics.counter "mae_serve_text_index_misses_total"
    ~help:
      "Estimate requests the text index could not answer (text not \
       indexed, or one of its stored estimates evicted)"

let text_index_evictions =
  Metrics.counter "mae_serve_text_index_evictions_total"
    ~help:"Text-index entries evicted by the LRU cap (the store's --store-cap)"

let queue_depth_gauge =
  Metrics.gauge "mae_serve_queue_depth"
    ~help:"Jobs waiting in the dispatch queue right now"

(* Exemplars carry the request ids of the slowest requests so /metrics
   cross-links to /tracez. *)
let request_latency_sketch =
  Metrics.summary "mae_serve_request_seconds_summary"
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

(* The outcome of the first result slot named [name], when it is Ok. *)
let ok_outcome (results : Mae.Driver.method_result list) name =
  match
    List.find_opt
      (fun (r : Mae.Driver.method_result) ->
        String.equal (Mae.Methodology.name r.methodology) name)
      results
  with
  | Some { outcome = Ok o; _ } -> Some o
  | Some { outcome = Error _; _ } | None -> None

let stdcell_auto results =
  match ok_outcome results "stdcell" with
  | Some (Mae.Methodology.Stdcell { auto; _ }) -> Some auto
  | _ -> None

let fullcustom_area results name field =
  match ok_outcome results name with
  | Some (Mae.Methodology.Fullcustom f) ->
      [ (field, Json.Number f.Mae.Estimate.area) ]
  | _ -> []

(* A module's answer reads its name, technology and results only, so a
   stored answer serves it without the circuit. *)
let module_json = function
  | Ok (a : Mae.Driver.answer) ->
      (* the flat legacy fields stay (when their methodologies ran and
         succeeded) so pre-registry clients keep working; the "methods"
         object is the full per-methodology story. *)
      let legacy =
        (match stdcell_auto a.results with
        | Some sc ->
            [
              ("rows", Json.Number (Float.of_int sc.Mae.Estimate.rows));
              ("stdcell_area", Json.Number sc.Mae.Estimate.area);
              ("stdcell_height", Json.Number sc.Mae.Estimate.height);
              ("stdcell_width", Json.Number sc.Mae.Estimate.width);
            ]
        | None -> [])
        @ fullcustom_area a.results "fullcustom-exact" "fullcustom_exact_area"
        @ fullcustom_area a.results "fullcustom-average"
            "fullcustom_average_area"
      in
      let failures =
        List.length
          (List.filter
             (fun (r : Mae.Driver.method_result) -> Result.is_error r.outcome)
             a.results)
      in
      Json.Object
        ([
           ("name", Json.String a.name);
           ("technology", Json.String a.technology);
         ]
        @ legacy
        @ [
            ("methods", Json.Object (List.map method_result_json a.results));
            ("method_errors", Json.Number (Float.of_int failures));
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
  cached : bool;
      (** every module of this request was answered from the estimate
          store -- exact per request, from its own per-module lookups *)
  indexed : bool;
      (** the text index answered: no parse, no keying *)
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
    cached = false;
    indexed = false;
    server_error;
  }

(* One request's results to the response fields. *)
let prepared_of_results ?(indexed = false) results ~cached =
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
        | Ok (a : Mae.Driver.answer) -> begin
            match stdcell_auto a.results with
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
    cached;
    indexed;
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
  index : (string, string list) Mae_db.Lru.t;
      (** text key -> the request's store keys, in module order *)
  queue : job Queue.t;
  mutable next_seq : int;
  mutable queued_estimates : int;
}

let create ~config ~transport ~cas =
  {
    config;
    transport;
    cas;
    (* empty, and at the size its first insert needs: the index costs
       nothing before the daemon is ready *)
    index = Mae_db.Lru.create ?cap:(Mae_db.Cas.live_cap cas) 1;
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

(* --- answering --- *)

let finish t job response =
  job.conn.Transport.pending <- job.conn.Transport.pending - 1;
  Transport.send t.transport job.conn job.framing response

let seq_and_id seq id fields =
  Json.Object
    ((("seq", Json.Number (Float.of_int seq))
      :: (match id with Json.Null -> [] | id -> [ ("id", id) ]))
    @ fields)

(* Every answered request takes the next sequence number and its
   request id, and counts in requests_total. *)
let with_next_request t f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let rid = "r" ^ string_of_int seq in
  Log.with_request_id rid @@ fun () ->
  Metrics.incr requests_total;
  f ~seq ~rid

(* The one access-log writer: every answered request's record, with
   its fields in one order; a shed request's adds "shed": true after
   "ok". *)
let log_request ?(shed = false) job ~seq ~latency ~gc_s p =
  let rest =
    [
      ("modules", Log.Int p.modules);
      ("modules_ok", Log.Int p.modules_ok);
      ("rows_selected", Log.Int p.rows_selected_total);
      ("latency_s", Log.Float latency);
      ("gc_s", Log.Float gc_s);
      ("cached", Log.Bool p.cached);
      ("indexed", Log.Bool p.indexed);
      ("bytes_in", Log.Int job.bytes);
    ]
  in
  Log.info ~event:"serve.request"
    (("seq", Log.Int seq)
    :: ("peer", Log.Str job.conn.Transport.peer)
    :: ("ok", Log.Bool p.p_ok)
    :: (if shed then ("shed", Log.Bool true) :: rest else rest))

(* Full per-request bookkeeping around [outcome]: the thunk runs inside
   the request's [serve.request] span (for an estimate, its parse and
   engine run).  Latency counts from frame arrival, so queue wait is
   part of it. *)
let answer t job ~id outcome =
  with_next_request t @@ fun ~seq ~rid ->
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
  log_request job ~seq ~latency ~gc_s p;
  let status = if p.p_ok then 200 else if p.server_error then 500 else 400 in
  finish t job
    (Protocol.json_response ~status (seq_and_id seq id p.fields))

let shed_retry_after_s = 1

(* A shed request: counted (total + failed + its own counter) and
   logged, but kept out of the latency sketch and tail capture. *)
let answer_shed t job ~id =
  with_next_request t @@ fun ~seq ~rid:_ ->
  Metrics.incr requests_failed;
  let latency = Mae_obs.Clock.monotonic () -. job.t0 in
  let p =
    failure
      (Printf.sprintf
         "server overloaded: request queue at watermark; retry after %ds"
         shed_retry_after_s)
  in
  log_request ~shed:true job ~seq ~latency ~gc_s:0. p;
  finish t job
    (Protocol.json_response ~status:503 ~retry_after_s:shed_retry_after_s
       (seq_and_id seq id
          (p.fields
          @ [ ("retry_after_s", Json.Number (Float.of_int shed_retry_after_s)) ]
          )))

(* --- the estimate path --- *)

(* How the store answered one module: a stored report under [key], a
   miss under [key], or no lookup at all -- an unknown process or
   method, which the engine reports as an error slot. *)
type lookup =
  | Hit of string * Mae.Driver.module_report
  | Miss of string
  | Unkeyed

(* One request's modules: one store lookup each, one engine run over
   the misses (none when every module hit), each computed [Ok] stored,
   and the results back in input order.  With the answer come the
   store keys of the modules that hit, in input order: all of them when
   the answer is [cached]. *)
let estimate_circuits t ~names ?methods circuits =
  let registry = t.config.registry in
  let lookup (circuit : Mae_netlist.Circuit.t) =
    match (names, Mae_tech.Registry.find registry circuit.technology) with
    | Some methods, Some process -> (
        let key = Mae_db.Cas.key ~methods ~process circuit in
        match Mae_db.Cas.find t.cas ~key ~circuit ~process with
        | Some report -> Hit (key, report)
        | None -> Miss key)
    | None, _ | _, None -> Unkeyed
  in
  let lookups = List.map lookup circuits in
  let pending =
    List.filter_map
      (fun (c, l) -> match l with Hit _ -> None | Miss _ | Unkeyed -> Some c)
      (List.combine circuits lookups)
  in
  let computed =
    if pending = [] then []
    else Mae_engine.run_circuits ?methods ~registry pending
  in
  let rec merge computed = function
    | [] -> []
    | Hit (_, report) :: rest -> Ok report :: merge computed rest
    | l :: rest -> (
        match computed with
        | r :: computed ->
            (match (l, r) with
            | Miss key, Ok report -> Mae_db.Cas.store t.cas ~key report
            | _ -> ());
            r :: merge computed rest
        | [] -> assert false (* one engine result per pending module *))
  in
  let results = merge computed lookups in
  let hits =
    List.filter_map
      (function Hit (key, _) -> Some key | Miss _ | Unkeyed -> None)
      lookups
  in
  ( prepared_of_results
      (List.map (Result.map Mae.Driver.answer) results)
      ~cached:(circuits <> [] && pending = []),
    hits )

(* The text index: a request's key is the digest of its HDL bytes, the
   two registry versions (methodologies, processes) and the resolved
   method names, and its value is the store keys of its modules.  Any
   byte, method or registry change gives another key; texts that differ
   only in order or whitespace still meet in the store through the
   canonical key.  The digest is 16 bytes and the methodology registry
   version 32, so the concatenation splits one way only. *)
let text_key t ~names hdl =
  String.concat ""
    [
      Digest.string hdl;
      Mae.Methodology.registry_version ();
      string_of_int (Mae_tech.Registry.version t.config.registry);
      "\n";
      String.concat "," names;
    ]

(* An indexed request whose stored estimates are all still held is
   answered from them; any one evicted sends it down the full path. *)
let from_index t key =
  Mae_obs.Span.with_ ~name:"serve.index" @@ fun () ->
  Option.bind (Mae_db.Lru.find t.index key) (Mae_db.Cas.find_answers t.cas)
  |> Option.map (fun answers ->
         prepared_of_results ~indexed:true
           (List.map Result.ok answers)
           ~cached:true)

(* One estimate request: the text index, else its own parse and its
   modules.  A request the full path answered wholly from the store is
   indexed: its modules are all [Ok] and stored, and its text (or one
   equal to it up to order and whitespace) has been answered before.
   A text seen once takes no index entry, and an empty index is not
   asked, so a stream of new texts never pays for the digest. *)
let estimate t (est : Protocol.estimate) =
  let names =
    match
      Mae.Methodology.resolve
        (Option.value est.Protocol.methods ~default:[ "default" ])
    with
    | Ok selected -> Some (List.map Mae.Methodology.name selected)
    | Error _ -> None
  in
  let key =
    lazy (Option.map (fun names -> text_key t ~names est.Protocol.hdl) names)
  in
  let answered =
    if Mae_db.Lru.length t.index = 0 then None
    else Option.bind (Lazy.force key) (from_index t)
  in
  match answered with
  | Some p ->
      Metrics.incr text_index_hits;
      p
  | None -> (
      if Option.is_some names then Metrics.incr text_index_misses;
      match Mae.Driver.string_circuits est.Protocol.hdl with
      | Error e -> failure (Format.asprintf "%a" Mae.Driver.pp_error e)
      | Ok circuits -> (
          match
            estimate_circuits t ~names ?methods:est.Protocol.methods circuits
          with
          | p, hits ->
              if p.cached then
                Option.iter
                  (fun key ->
                    let evicted = Mae_db.Lru.add t.index key hits in
                    if evicted > 0 then
                      Metrics.add text_index_evictions evicted)
                  (Lazy.force key);
              p
          | exception exn ->
              failure ~server_error:true
                ("estimator crashed: " ^ Printexc.to_string exn)))

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

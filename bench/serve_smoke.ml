(* @serve-smoke: the serve-daemon gate.

   Forks a Mae_serve daemon (TCP port 0 on loopback for both planes,
   access log + final metrics/trace dumps in the sandbox cwd), then:

   1. sends 120 estimation requests over one request-plane connection
      -- 100 valid modules, 10 malformed JSON lines, 5 protocol errors,
      5 modules on an unknown process -- and tallies ok/failed
      client-side while checking every response's [seq] is monotone;
   2. scrapes GET /metrics and checks the request/ok/failed counters
      against the client tally (and /healthz against the same numbers),
      plus the latency-sketch summary (count, ordered quantiles,
      request-id exemplars);
   3. checks that GET /runtimez carries live per-domain GC
      statistics;
   4. reads the access log back: one serve.request JSON record per
      request, request ids r1..rN in order, every line parseable;
   5. SIGTERMs the daemons and confirms a clean drain: exit code 0, a
      serve.shutdown record, and a final metrics dump whose counters
      still match;
   6. asserts estimates are bit-for-bit identical with logging off and
      with logging at debug -- the logger must never touch a result;
   7. exercises the content-addressed estimate store: a repeated
      request answers cached:true with byte-identical modules and bumps
      mae_estimate_cache_hits_total; a slow client dribbling its
      request one byte at a time is framed whole; a third daemon
      started on a journal written by the parent process answers its
      very first request from disk and flushes a Store snapshot on
      SIGTERM;
   8. exercises the HTTP dialect of the request plane: keep-alive GETs
      on the obs plane, two POST /estimate requests on one connection
      (the second with Connection: close, which must be honored), and
      a good-bad-good pipelined line burst where a malformed request
      and a 9 MiB oversized line each answer their typed error while
      the requests queued behind them still answer, in order, and a
      pipelined burst of never-seen modules written at once whose
      responses keep arrival order and whose access-log records each
      carry their own kernel-cache traffic;
   9. pipelines a 40-request burst at a second daemon (queue watermark
      2) and asserts deterministic admission control: every response
      arrives in request order, the overflow answers ok:false +
      retry_after_s, the shed count matches
      mae_serve_requests_shed_total, and /healthz still answers 200.

     dune build @serve-smoke   (also pulled in by @bench-smoke) *)

module Json = Mae_obs.Json
open Smoke_support

let () = prefix := "serve-smoke"

let access_log_path = "serve_smoke_access.log"
let metrics_path = "serve_smoke_metrics.json"
let trace_path = "serve_smoke_trace.json"
let journal_path = "serve_smoke_store.journal"
let store_db_path = "serve_smoke_store.db"

(* --- the request corpus --- *)

let hdl_of circuit = Mae_hdl.Printer.to_string circuit

let valid_hdl i =
  let g = Mae_workload.Generators.counter ~technology:"nmos25" (4 + (i mod 5)) in
  hdl_of g

let unknown_process_hdl i =
  let g =
    Mae_workload.Generators.counter ~technology:"unobtanium" (4 + (i mod 3))
  in
  hdl_of g

type expected = Expect_ok | Expect_failed

(* 120 requests: 100 valid, 10 malformed JSON, 5 without "hdl",
   5 on an unknown process.  Malformed lines still get a response
   (ok:false), so every request yields exactly one response line. *)
let corpus =
  List.concat
    [
      List.init 100 (fun i ->
          ( Json.encode
              (Json.Object
                 [
                   ("id", Json.Number (Float.of_int i));
                   ("hdl", Json.String (valid_hdl i));
                 ]),
            Expect_ok ));
      List.init 10 (fun i ->
          (Printf.sprintf "{\"id\": %d, \"hdl\": " i, Expect_failed));
      List.init 5 (fun i ->
          ( Json.encode (Json.Object [ ("id", Json.Number (Float.of_int i)) ]),
            Expect_failed ));
      List.init 5 (fun i ->
          ( Json.encode
              (Json.Object [ ("hdl", Json.String (unknown_process_hdl i)) ]),
            Expect_failed ));
    ]

(* --- bit-for-bit: logging must never change an estimate --- *)

let digest results =
  List.map
    (function
      | Ok (r : Mae.Driver.module_report) ->
          List.concat_map
            (fun (mr : Mae.Driver.method_result) ->
              match mr.outcome with
              | Ok outcome ->
                  let d = Mae.Methodology.dims outcome in
                  List.map Int64.bits_of_float [ d.area; d.height; d.width ]
              | Error _ -> [])
            r.results
      | Error _ -> [])
    results

let check_log_invariance () =
  let registry = Mae_tech.Registry.create () in
  let batch =
    List.init 12 (fun i ->
        Mae_workload.Bench_circuits.flatten
          (Mae_workload.Generators.counter (8 + i)))
  in
  Mae_obs.Log.set_threshold None;
  let off = Mae_engine.run_circuits ~jobs:2 ~registry batch in
  (match Mae_obs.Log.set_sink_file "serve_smoke_debug.log" with
  | Ok () -> ()
  | Error e -> fail "debug log sink: %s" e);
  Mae_obs.Log.set_threshold (Some Mae_obs.Log.Debug);
  let on = Mae_engine.run_circuits ~jobs:2 ~registry batch in
  Mae_obs.Log.set_threshold None;
  Mae_obs.Log.close ();
  check (digest off = digest on)
    "estimates bit-for-bit identical with logging off and at debug";
  let debug_lines =
    In_channel.with_open_text "serve_smoke_debug.log" In_channel.input_lines
  in
  check
    (List.exists
       (fun l ->
         match Json.parse l with
         | Ok doc -> Json.member "event" doc = Some (Json.String "driver.module")
         | Error _ -> false)
       debug_lines)
    "debug level emits driver.module records (%d lines)"
    (List.length debug_lines)

(* --- the daemon lifecycle --- *)

(* the module pre-estimated into the journal by the parent and asked of
   the warm daemon: its very first request must answer from disk *)
let warm_hdl = hdl_of (Mae_workload.Generators.counter ~technology:"nmos25" 11)

(* Estimate [warm_hdl] into a fresh journal, in-process (jobs:1 spawns
   no domain, so the daemon forks below stay legal).  The daemon replays
   this file at startup and must answer the same module without
   computing. *)
let prepopulate_journal () =
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let registry = Mae_tech.Registry.create () in
  let cas = Mae_db.Cas.create () in
  (match Mae_db.Cas.open_journal cas ~path:journal_path with
  | Ok (0, 0) -> ()
  | Ok (l, s) -> fail "fresh journal loaded %d skipped %d" l s
  | Error e -> fail "open_journal: %s" e);
  (match Mae.Driver.string_circuits warm_hdl with
  | Error _ -> fail "prepopulate: driver error"
  | Ok circuits -> (
      match Mae_engine.run_circuits ~jobs:1 ~registry circuits with
      | [ Ok report ] ->
          let process =
            Mae_tech.Registry.find_exn registry report.circuit.technology
          in
          Mae_db.Cas.store cas
            ~key:(Mae_db.Cas.key ~process report.circuit)
            report
      | _ -> fail "prepopulate: expected one Ok module"));
  Mae_db.Cas.close_journal cas;
  check
    (Mae_db.Cas.length cas = 1)
    "parent pre-estimated 1 module into %s" journal_path

let spawn_server ?(shed = false) ?journal ?store_out () =
  let main = (not shed) && journal = None in
  spawn ~prefix:"serve-smoke child" (fun config ->
      if main then begin
        Mae_obs.Log.set_threshold (Some Mae_obs.Log.Info);
        match Mae_obs.Log.set_sink_file access_log_path with
        | Ok () -> ()
        | Error e -> fail "access log: %s" e
      end;
      {
        config with
        Mae_serve.metrics_out = (if main then Some metrics_path else None);
        trace_out = (if main then Some trace_path else None);
        store_journal = journal;
        store_out;
        (* a tiny watermark so a pipelined burst trips admission
           control deterministically in the shed phase *)
        queue_watermark = (if shed then 2 else 256);
      })

let () =
  (* estimate one module into the journal first: jobs:1 spawns no
     domain, so the forks below stay legal under OCaml 5 *)
  prepopulate_journal ();
  (* fork the daemons before anything spawns a domain: OCaml 5 forbids
     Unix.fork once other domains exist, and the invariance check below
     runs the engine at jobs:2 *)
  let pid, req_port, obs_port = spawn_server () in
  (* the shed daemon forks now too, for the same reason; it idles
     until the admission-control phase near the end *)
  let ov_pid, ov_req_port, ov_obs_port = spawn_server ~shed:true () in
  (* the warm daemon replays the parent's journal at startup and flushes
     a Store snapshot at shutdown *)
  let warm_pid, warm_req_port, warm_obs_port =
    spawn_server ~journal:journal_path ~store_out:store_db_path ()
  in
  check_log_invariance ();
  check (req_port > 0 && obs_port > 0)
    "daemon bound request plane :%d and obs plane :%d" req_port obs_port;

  (* one connection, request/response in lockstep *)
  let fd = connect_tcp "127.0.0.1" req_port in
  let ic = Unix.in_channel_of_descr fd in
  let sent_ok = ref 0 and sent_failed = ref 0 in
  let last_seq = ref 0 in
  List.iter
    (fun (line, expected) ->
      let line = line ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let reply = input_line ic in
      let doc =
        match Json.parse reply with
        | Ok d -> d
        | Error e -> fail "response not JSON (%s): %S" e reply
      in
      let ok =
        match Json.member "ok" doc with
        | Some (Json.Bool b) -> b
        | _ -> fail "response lacks ok: %S" reply
      in
      let seq =
        match Option.bind (Json.member "seq" doc) Json.to_number with
        | Some f -> int_of_float f
        | None -> fail "response lacks seq: %S" reply
      in
      if seq <= !last_seq then
        fail "seq not monotone: %d after %d" seq !last_seq;
      last_seq := seq;
      (match expected with
      | Expect_ok ->
          if not ok then fail "expected ok for %S, got %S" line reply;
          incr sent_ok
      | Expect_failed ->
          if ok then fail "expected failure for %S, got %S" line reply;
          incr sent_failed))
    corpus;

  (* one multi-method request on the same connection: every registered
     methodology must answer inside the "methods" object *)
  let all_names =
    [
      "stdcell"; "fullcustom-exact"; "fullcustom-average"; "gatearray";
      "naive"; "champ"; "pla"; "plest";
    ]
  in
  let multi_line =
    Json.encode
      (Json.Object
         [
           ("id", Json.String "multi");
           ("hdl", Json.String (valid_hdl 0));
           ("methods", Json.String "all");
         ])
    ^ "\n"
  in
  ignore (Unix.write_substring fd multi_line 0 (String.length multi_line));
  let multi_reply = input_line ic in
  incr sent_ok;
  incr last_seq;
  let multi_doc =
    match Json.parse multi_reply with
    | Ok d -> d
    | Error e -> fail "multi-method response not JSON (%s): %S" e multi_reply
  in
  (match Json.member "ok" multi_doc with
  | Some (Json.Bool true) -> ()
  | _ -> fail "multi-method request failed: %S" multi_reply);
  let multi_methods =
    match Json.member "modules" multi_doc with
    | Some (Json.Array [ m ]) -> begin
        match Json.member "methods" m with
        | Some (Json.Object kvs) -> kvs
        | _ -> fail "module response lacks a methods object: %S" multi_reply
      end
    | _ -> fail "multi-method response lacks one module: %S" multi_reply
  in
  List.iter
    (fun name ->
      match List.assoc_opt name multi_methods with
      | None -> fail "methods object lacks %s: %S" name multi_reply
      | Some entry -> begin
          match Json.member "ok" entry with
          | Some (Json.Bool _) -> ()
          | _ -> fail "method %s entry lacks ok: %S" name multi_reply
        end)
    all_names;
  check true "methods=all request answered with all %d methodologies"
    (List.length all_names);

  (* --- the estimate store: a repeated request is answered from it,
     bit-for-bit, and the response says so --- *)
  let send_and_parse line =
    let line = line ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let reply = input_line ic in
    incr sent_ok;
    incr last_seq;
    match Json.parse reply with
    | Ok d -> d
    | Error e -> fail "store-phase response not JSON (%s): %S" e reply
  in
  let cached_of doc tag =
    match Json.member "cached" doc with
    | Some (Json.Bool b) -> b
    | _ -> fail "%s response lacks a cached field" tag
  in
  let modules_of doc tag =
    match Json.member "modules" doc with
    | Some m -> Json.encode m
    | None -> fail "%s response lacks modules" tag
  in
  let fresh_line =
    Json.encode
      (Json.Object
         [
           ("id", Json.String "store-probe");
           ( "hdl",
             Json.String
               (hdl_of (Mae_workload.Generators.counter ~technology:"nmos25" 16))
           );
         ])
  in
  let hits_metric () =
    let _, body = get ~port:obs_port "/metrics" in
    int_of_float (prom_value body "mae_estimate_cache_hits_total")
  in
  let cold_doc = send_and_parse fresh_line in
  check (not (cached_of cold_doc "cold"))
    "first sight of a module is not cached";
  let hits_before = hits_metric () in
  let warm_doc = send_and_parse fresh_line in
  check (cached_of warm_doc "warm") "repeated request answers cached:true";
  check
    (hits_metric () = hits_before + 1)
    "mae_estimate_cache_hits_total counted the repeat (%d -> %d)" hits_before
    (hits_before + 1);
  check
    (String.equal (modules_of cold_doc "cold") (modules_of warm_doc "warm"))
    "cached response is byte-identical to the computed one";

  (* --- framing: a slow client dribbling one byte at a time must still
     be answered (single-shot reads used to drop or split lines) --- *)
  let slow_fd = connect_tcp "127.0.0.1" req_port in
  let slow_ic = Unix.in_channel_of_descr slow_fd in
  let slow_line =
    Json.encode
      (Json.Object
         [ ("id", Json.String "slow"); ("hdl", Json.String (valid_hdl 0)) ])
    ^ "\n"
  in
  String.iteri
    (fun i c ->
      ignore (Unix.write_substring slow_fd (String.make 1 c) 0 1);
      (* pause between dribbles so the server genuinely sees short
         reads rather than one coalesced segment *)
      if i mod 64 = 0 then Unix.sleepf 0.002)
    slow_line;
  let slow_doc =
    match Json.parse (input_line slow_ic) with
    | Ok d -> d
    | Error e -> fail "slow-client response not JSON: %s" e
  in
  incr sent_ok;
  incr last_seq;
  (match Json.member "ok" slow_doc with
  | Some (Json.Bool true) -> ()
  | _ -> fail "slow-client request failed");
  check
    (cached_of slow_doc "slow")
    "byte-at-a-time request framed whole and answered from the store";
  Unix.close slow_fd;

  (* --- HTTP/1.1 keep-alive: one connection answers many requests,
     framed by Content-Length --- *)
  let ka_fd = connect_tcp "127.0.0.1" obs_port in
  write_fully ka_fd "GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n";
  let _, ka_head1, ka_body1, ka_rest = recv_http ka_fd "" in
  check
    (String.length ka_head1 >= 15
    && String.equal (String.sub ka_head1 0 15) "HTTP/1.1 200 OK"
    && index_sub ka_head1 "Connection: keep-alive" <> None
    && (match Json.parse (String.trim ka_body1) with
       | Ok _ -> true
       | Error _ -> false))
    "HTTP/1.1 scrape answers 200 and advertises keep-alive";
  write_fully ka_fd "GET /buildinfo HTTP/1.1\r\nHost: smoke\r\n\r\n";
  let _, ka_head2, ka_body2, _ = recv_http ka_fd ka_rest in
  check
    (String.length ka_head2 >= 15
    && String.equal (String.sub ka_head2 0 15) "HTTP/1.1 200 OK"
    && (match Json.parse (String.trim ka_body2) with
       | Ok _ -> true
       | Error _ -> false))
    "second GET answered on the same obs connection (keep-alive)";
  Unix.close ka_fd;

  (* --- HTTP POST /estimate on the request plane: same estimates, HTTP
     framing, connection reused until the client says close --- *)
  let post_fd = connect_tcp "127.0.0.1" req_port in
  let post_request ?(close = false) id =
    let body =
      Json.encode
        (Json.Object
           [ ("id", Json.String id); ("hdl", Json.String (valid_hdl 3)) ])
    in
    Printf.sprintf "POST /estimate HTTP/1.1\r\nHost: smoke\r\n%sContent-Length: %d\r\n\r\n%s"
      (if close then "Connection: close\r\n" else "")
      (String.length body) body
  in
  let parse_post tag body =
    match Json.parse (String.trim body) with
    | Ok doc ->
        if Json.member "ok" doc <> Some (Json.Bool true) then
          fail "%s answered ok:false: %S" tag body;
        doc
    | Error e -> fail "%s response not JSON (%s): %S" tag e body
  in
  write_fully post_fd (post_request "http-1");
  let _, ph1, pbody1, post_rest = recv_http post_fd "" in
  incr sent_ok;
  incr last_seq;
  let pdoc1 = parse_post "HTTP POST 1" pbody1 in
  check
    (String.length ph1 >= 15
    && String.equal (String.sub ph1 0 15) "HTTP/1.1 200 OK"
    && index_sub ph1 "Connection: keep-alive" <> None
    && Option.bind (Json.member "seq" pdoc1) Json.to_number
       = Some (Float.of_int !last_seq))
    "HTTP POST /estimate answers the same JSON with the next seq";
  write_fully post_fd (post_request ~close:true "http-2");
  let _, ph2, pbody2, _ = recv_http post_fd post_rest in
  incr sent_ok;
  incr last_seq;
  ignore (parse_post "HTTP POST 2" pbody2);
  let post_eof =
    let b = Bytes.create 1 in
    match Unix.read post_fd b 0 1 with 0 -> true | _ -> false
  in
  Unix.close post_fd;
  check
    (index_sub ph2 "Connection: close" <> None && post_eof)
    "Connection: close honoured after the second HTTP POST";

  (* --- a malformed or oversized frame answers in order without
     killing the connection: good, bad, huge, good -- pipelined --- *)
  let pl_fd = connect_tcp "127.0.0.1" req_port in
  let pl_ic = Unix.in_channel_of_descr pl_fd in
  let pl_line id =
    Json.encode
      (Json.Object
         [ ("id", Json.String id); ("hdl", Json.String (valid_hdl 4)) ])
    ^ "\n"
  in
  write_fully pl_fd (pl_line "pl-1" ^ "{\"id\": 901, \"hdl\": \n");
  (* 9 MiB without a newline overflows the 8 MiB frame cap *)
  write_fully pl_fd (String.make (9 * 1024 * 1024) 'x' ^ "\n");
  write_fully pl_fd (pl_line "pl-2");
  let pl_read tag =
    match Json.parse (input_line pl_ic) with
    | Ok d -> d
    | Error e -> fail "%s response not JSON: %s" tag e
  in
  let pl1 = pl_read "pipelined good 1" in
  if Json.member "ok" pl1 <> Some (Json.Bool true) then
    fail "pipelined good request 1 failed";
  incr sent_ok;
  incr last_seq;
  let pl2 = pl_read "pipelined malformed" in
  if Json.member "ok" pl2 <> Some (Json.Bool false) then
    fail "malformed frame should answer ok:false";
  if Json.member "seq" pl2 = None then
    fail "malformed frame should be a counted request with a seq";
  incr sent_failed;
  incr last_seq;
  let pl3 = pl_read "pipelined oversized" in
  (match (Json.member "seq" pl3, Json.member "error" pl3) with
  | None, Some (Json.String e) when index_sub e "exceeds" <> None ->
      (* answered but unaccounted: no seq, no counters *)
      ()
  | _ -> fail "oversized frame should answer an uncounted error");
  let pl4 = pl_read "pipelined good 2" in
  if Json.member "ok" pl4 <> Some (Json.Bool true) then
    fail "pipelined good request 2 failed (connection should survive)";
  incr sent_ok;
  incr last_seq;
  Unix.close pl_fd;
  check true
    "malformed and oversized frames answered in order, connection intact";

  (* --- a pipelined burst of distinct, never-seen modules in one write:
     each request is its own engine run, so the access log (checked
     below) gives each its own kernel-cache traffic --- *)
  let burst_sizes = List.init 8 (fun i -> 20 + i) in
  let burst_id n = Json.String (Printf.sprintf "burst-%d" n) in
  let burst_fd = connect_tcp "127.0.0.1" req_port in
  let burst_ic = Unix.in_channel_of_descr burst_fd in
  write_fully burst_fd
    (String.concat ""
       (List.map
          (fun n ->
            Json.encode
              (Json.Object
                 [
                   ("id", burst_id n);
                   ( "hdl",
                     Json.String
                       (hdl_of
                          (Mae_workload.Generators.counter ~technology:"nmos25" n))
                   );
                 ])
            ^ "\n")
          burst_sizes));
  let burst_seqs =
    List.map
      (fun n ->
        let doc =
          match Json.parse (input_line burst_ic) with
          | Ok d -> d
          | Error e -> fail "burst response not JSON: %s" e
        in
        if Json.member "id" doc <> Some (burst_id n) then
          fail "burst response out of order, want burst-%d: %S" n
            (Json.encode doc);
        if
          Json.member "ok" doc <> Some (Json.Bool true)
          || Json.member "cached" doc <> Some (Json.Bool false)
        then fail "burst-%d should answer ok and uncached: %S" n (Json.encode doc);
        incr sent_ok;
        incr last_seq;
        match Option.bind (Json.member "seq" doc) Json.to_number with
        | Some f -> int_of_float f
        | None -> fail "burst-%d response lacks seq" n)
      burst_sizes
  in
  Unix.close burst_fd;
  check true "pipelined burst of %d new modules answered in arrival order"
    (List.length burst_sizes);

  Unix.close fd;
  let total = !sent_ok + !sent_failed in
  let burst = List.length burst_sizes in
  check (total = List.length corpus + 9 + burst && !sent_ok = 108 + burst)
    "%d requests answered in order (%d ok, %d failed), seq monotone to %d"
    total !sent_ok !sent_failed !last_seq;

  (* /metrics must agree with the client-side tally *)
  let _, metrics_body = get ~port:obs_port "/metrics" in
  let m name = int_of_float (prom_value metrics_body name) in
  check
    (m "mae_serve_requests_total" = total
    && m "mae_serve_requests_ok_total" = !sent_ok
    && m "mae_serve_requests_failed_total" = !sent_failed)
    "/metrics counters match the client tally (%d/%d/%d)" total !sent_ok
    !sent_failed;
  check
    (m "mae_serve_connections_reused_total" >= 1)
    "keep-alive connections counted as reused (%d >= 1)"
    (m "mae_serve_connections_reused_total");
  check
    (m "mae_serve_requests_shed_total" = 0)
    "no requests shed under friendly load";
  (* the 100 valid corpus requests cycle through 5 distinct modules, so
     at least 95 of them were answered from the estimate store *)
  check
    (m "mae_estimate_cache_hits_total" >= 95)
    "repeat-heavy corpus hit the estimate store %d times (>= 95)"
    (m "mae_estimate_cache_hits_total");

  (* per-methodology counters: the methods=all request ran all eight *)
  List.iter
    (fun name ->
      let metric =
        "mae_method_"
        ^ String.map (fun c -> if c = '-' then '_' else c) name
        ^ "_runs_total"
      in
      if m metric < 1 then fail "%s = %d, want >= 1" metric (m metric))
    all_names;
  check true "per-methodology run counters populated for all %d estimators"
    (List.length all_names);

  (* GET /methods lists every registered estimator plus the default set *)
  let _, methods_body = get ~port:obs_port "/methods" in
  let methods_doc =
    match Json.parse methods_body with
    | Ok d -> d
    | Error e -> fail "/methods not JSON (%s): %S" e methods_body
  in
  let listed =
    match Json.member "methods" methods_doc with
    | Some (Json.Array entries) ->
        List.map
          (fun e ->
            match Json.member "name" e with
            | Some (Json.String s) -> s
            | _ -> fail "/methods entry lacks a name: %S" methods_body)
          entries
    | _ -> fail "/methods lacks a methods array: %S" methods_body
  in
  List.iter
    (fun name ->
      if not (List.mem name listed) then
        fail "/methods does not list %s (got %s)" name
          (String.concat "," listed))
    all_names;
  (match Json.member "default" methods_doc with
  | Some (Json.Array (_ :: _)) -> ()
  | _ -> fail "/methods lacks a non-empty default set: %S" methods_body);
  check true "/methods lists all %d estimators" (List.length listed);

  (* /healthz *)
  let headers, health_body = get ~port:obs_port "/healthz" in
  check
    (String.length headers >= 15
    && String.equal (String.sub headers 0 15) "HTTP/1.0 200 OK")
    "/healthz answers 200";
  (match Json.parse (String.trim health_body) with
  | Error e -> fail "/healthz body not JSON: %s" e
  | Ok doc ->
      check
        (Json.member "status" doc = Some (Json.String "ok"))
        "/healthz status ok";
      check
        (Option.bind (Json.member "requests_total" doc) Json.to_number
        = Some (Float.of_int total))
        "/healthz sees %d requests" total);

  (* request-latency sketch: summary quantiles + exemplars in /metrics *)
  check
    (m "mae_serve_request_seconds_summary_count" = total)
    "latency sketch counted all %d requests" total;
  let sk_q q =
    match
      List.assoc_opt q
        (sketch_quantiles (parse_prometheus metrics_body)
           "mae_serve_request_seconds_summary")
    with
    | Some v -> v
    | None -> fail "latency sketch quantile %g not in /metrics" q
  in
  check
    (sk_q 0.5 > 0. && sk_q 0.5 <= sk_q 0.99)
    "sketch quantiles ordered (p50 %.6fs <= p99 %.6fs)" (sk_q 0.5)
    (sk_q 0.99);
  check
    (contains metrics_body
       "# EXEMPLAR mae_serve_request_seconds_summary {request_id=\"r")
    "sketch exemplars carry request ids into /metrics";

  (* GET /runtimez: this daemon writes a trace, so telemetry -- and
     with it the runtime lens -- is on; after 121 estimation requests
     the per-domain GC statistics must be live *)
  let rz_headers, rz_text = get ~port:obs_port "/runtimez" in
  check
    (String.length rz_headers >= 15
    && String.equal (String.sub rz_headers 0 15) "HTTP/1.0 200 OK")
    "/runtimez answers 200";
  let rz_doc =
    match Json.parse (String.trim rz_text) with
    | Ok d -> d
    | Error e -> fail "/runtimez not JSON (%s): %S" e rz_text
  in
  check
    (Json.member "enabled" rz_doc = Some (Json.Bool true))
    "/runtimez says the lens is running";
  let rz_domains =
    match Json.member "domains" rz_doc with
    | Some (Json.Array (_ :: _ as ds)) -> ds
    | _ -> fail "/runtimez lacks per-domain rows: %S" rz_text
  in
  check
    (List.exists
       (fun d ->
         match
           Option.bind (Json.member "minor_collections" d) Json.to_number
         with
         | Some n -> n > 0.
         | None -> false)
       rz_domains)
    "/runtimez shows live GC activity across %d domain(s)"
    (List.length rz_domains);
  (match Option.bind (Json.member "process" rz_doc) (Json.member "uptime_s") with
  | Some (Json.Number up) when up > 0. -> ()
  | _ -> fail "/runtimez lacks process.uptime_s: %S" rz_text);
  check true "/runtimez carries process telemetry";
  let _, metrics_after = get ~port:obs_port "/metrics" in
  check
    (contains metrics_after "mae_gc_minor_collections_total"
    && contains metrics_after "mae_gc_pause_seconds_summary{domain=\"")
    "/metrics exposes mae_gc_* families with per-domain pause summaries";

  (* 404 for unknown paths *)
  let headers404, _ = get ~port:obs_port "/nope" in
  check
    (String.length headers404 >= 12
    && String.equal (String.sub headers404 9 3) "404")
    "unknown path answers 404";

  (* access log: one record per request, ids r1..rN in order *)
  let log_lines =
    In_channel.with_open_text access_log_path In_channel.input_lines
  in
  let requests =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Error e -> fail "access log line not JSON (%s): %S" e line
        | Ok doc ->
            if Json.member "event" doc = Some (Json.String "serve.request")
            then Some doc
            else None)
      log_lines
  in
  check
    (List.length requests = total)
    "one serve.request access-log record per request (%d)"
    (List.length requests);
  List.iteri
    (fun i doc ->
      let expect = Printf.sprintf "r%d" (i + 1) in
      (match Json.member "request_id" doc with
      | Some (Json.String id) when String.equal id expect -> ()
      | Some (Json.String id) ->
          fail "access log record %d has id %s, want %s" i id expect
      | _ -> fail "access log record %d lacks request_id" i);
      List.iter
        (fun field ->
          if Json.member field doc = None then
            fail "access log record %d lacks %s" i field)
        [ "latency_s"; "rows_selected"; "ok" ])
    requests;
  check true "access-log request ids are r1..r%d in order" total;
  (* every request is its own engine run, so every uncached estimate
     logs the rows its own standard-cell estimates selected: first the
     lockstep corpus (r1..rN) *)
  let int_field field doc =
    match Option.bind (Json.member field doc) Json.to_number with
    | Some f -> int_of_float f
    | None -> 0
  in
  let lockstep = List.filteri (fun i _ -> i < List.length corpus) requests in
  let uncached =
    List.filter
      (fun doc ->
        Json.member "ok" doc = Some (Json.Bool true)
        && Json.member "cached" doc = Some (Json.Bool false)
        && int_field "modules" doc > 0)
      lockstep
  in
  check
    (uncached <> []
    && List.for_all
         (fun doc -> int_field "rows_selected" doc > 0)
         uncached)
    "every uncached lockstep estimate (%d of r1..r%d) logs its own selected \
     rows"
    (List.length uncached) (List.length corpus);
  (* ... then the pipelined burst, which arrived all at once *)
  let burst_records =
    List.filter (fun doc -> List.mem (int_field "seq" doc) burst_seqs) requests
  in
  check
    (List.length burst_records = burst
    && List.for_all
         (fun doc -> int_field "rows_selected" doc > 0)
         burst_records)
    "every pipelined burst estimate (%d) logs its own selected rows"
    (List.length burst_records);

  (* --- the warm daemon: its journal was written by another process,
     so its very first request must answer from disk --- *)
  check
    (warm_req_port > 0 && warm_obs_port > 0)
    "warm daemon bound request plane :%d and obs plane :%d" warm_req_port
    warm_obs_port;
  (* the child inherits the parent's own counter values at fork, so
     judge the warm request by counter deltas, not absolutes *)
  let warm_counters () =
    let _, body = get ~port:warm_obs_port "/metrics" in
    ( int_of_float (prom_value body "mae_estimate_cache_hits_total"),
      int_of_float (prom_value body "mae_estimate_cache_misses_total") )
  in
  let hits0, misses0 = warm_counters () in
  let warm_fd = connect_tcp "127.0.0.1" warm_req_port in
  let warm_ic = Unix.in_channel_of_descr warm_fd in
  let warm_line =
    Json.encode
      (Json.Object
         [ ("id", Json.String "warm"); ("hdl", Json.String warm_hdl) ])
    ^ "\n"
  in
  ignore (Unix.write_substring warm_fd warm_line 0 (String.length warm_line));
  let warm_doc =
    match Json.parse (input_line warm_ic) with
    | Ok d -> d
    | Error e -> fail "warm-daemon response not JSON: %s" e
  in
  Unix.close warm_fd;
  (match Json.member "ok" warm_doc with
  | Some (Json.Bool true) -> ()
  | _ -> fail "warm-daemon request failed");
  check
    (Json.member "cached" warm_doc = Some (Json.Bool true))
    "restarted daemon answers its first request from the replayed journal";
  let hits1, misses1 = warm_counters () in
  check
    (hits1 = hits0 + 1 && misses1 = misses0)
    "warm daemon counters moved by 1 store hit, 0 misses";
  Unix.kill warm_pid Sys.sigterm;
  let _, warm_status = Unix.waitpid [] warm_pid in
  check (warm_status = Unix.WEXITED 0) "warm daemon drained and exited 0";
  check (Sys.file_exists store_db_path) "store snapshot flushed at shutdown";
  (match Mae_db.Store.load ~path:store_db_path with
  | Error e -> fail "store snapshot does not load: %s" e
  | Ok store ->
      check
        (List.length (Mae_db.Store.records store) = 1)
        "store snapshot holds the journal-warmed module");

  check
    (ov_req_port > 0 && ov_obs_port > 0)
    "shed daemon bound request plane :%d and obs plane :%d" ov_req_port
    ov_obs_port;

  (* admission control: this daemon's queue watermark is 2, so a
     pipelined burst trips shedding -- the prefix estimates, the excess
     answers 503-style with retry_after_s, and every response keeps its
     request's place in line *)
  let shed_fd = connect_tcp "127.0.0.1" ov_req_port in
  let shed_ic = Unix.in_channel_of_descr shed_fd in
  let burst = 40 in
  let burst_buf = Buffer.create 4096 in
  for i = 1 to burst do
    Buffer.add_string burst_buf
      (Json.encode
         (Json.Object
            [
              ("id", Json.Number (Float.of_int i));
              ("hdl", Json.String (valid_hdl 0));
            ])
      ^ "\n")
  done;
  write_fully shed_fd (Buffer.contents burst_buf);
  let shed_oks = ref 0 and shed_dropped = ref 0 in
  for i = 1 to burst do
    let doc =
      match Json.parse (input_line shed_ic) with
      | Ok d -> d
      | Error e -> fail "shed burst response %d not JSON: %s" i e
    in
    (match Option.bind (Json.member "id" doc) Json.to_number with
    | Some f when int_of_float f = i -> ()
    | _ -> fail "shed burst response %d out of order: %S" i (Json.encode doc));
    match Json.member "ok" doc with
    | Some (Json.Bool true) -> incr shed_oks
    | Some (Json.Bool false) -> (
        match (Json.member "retry_after_s" doc, Json.member "error" doc) with
        | Some (Json.Number _), Some (Json.String e)
          when String.length e >= 17
               && String.equal (String.sub e 0 17) "server overloaded" ->
            incr shed_dropped
        | _ ->
            fail "shed response %d lacks retry_after_s/overloaded error: %S" i
              (Json.encode doc))
    | _ -> fail "shed burst response %d lacks ok" i
  done;
  Unix.close shed_fd;
  check
    (!shed_oks >= 1 && !shed_dropped >= 1 && !shed_oks + !shed_dropped = burst)
    "burst of %d past the watermark: %d estimated, %d shed, order kept" burst
    !shed_oks !shed_dropped;
  let _, ov_metrics = get ~port:ov_obs_port "/metrics" in
  check
    (int_of_float (prom_value ov_metrics "mae_serve_requests_shed_total")
    = !shed_dropped)
    "mae_serve_requests_shed_total agrees with the client (%d)" !shed_dropped;

  (* shedding is the overload answer; liveness stays 200 *)
  let ov_headers, ov_health_text = get ~port:ov_obs_port "/healthz" in
  check
    (String.length ov_headers >= 15
    && String.equal (String.sub ov_headers 0 15) "HTTP/1.0 200 OK"
    && Result.map (Json.member "status")
         (Json.parse (String.trim ov_health_text))
       = Ok (Some (Json.String "ok")))
    "/healthz answers 200 ok after the shed burst";
  Unix.kill ov_pid Sys.sigterm;
  let _, ov_status = Unix.waitpid [] ov_pid in
  check (ov_status = Unix.WEXITED 0) "shed daemon drained and exited 0";

  (* SIGTERM: clean drain + final flush *)
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  check (status = Unix.WEXITED 0) "daemon drained and exited 0 on SIGTERM";
  check (Sys.file_exists metrics_path) "final metrics dump flushed";
  (match Json.parse (In_channel.with_open_text metrics_path In_channel.input_all) with
  | Error e -> fail "final metrics dump not JSON: %s" e
  | Ok doc -> (
      match
        Option.bind (Json.member "counters" doc) (fun c ->
            Option.bind (Json.member "mae_serve_requests_total" c) Json.to_number)
      with
      | Some f when int_of_float f = total ->
          check true "final metrics dump still counts %d requests" total
      | _ -> fail "final metrics dump disagrees with the tally"));
  check (Sys.file_exists trace_path) "final trace flushed";
  let shutdown_seen =
    List.exists
      (fun line ->
        match Json.parse line with
        | Ok doc -> Json.member "event" doc = Some (Json.String "serve.shutdown")
        | Error _ -> false)
      (In_channel.with_open_text access_log_path In_channel.input_lines)
  in
  check shutdown_seen "serve.shutdown record written on drain";
  print_endline "serve-smoke: all checks passed"

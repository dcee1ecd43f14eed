(* @load-smoke: the serve-plane load gate, and a standalone open-loop
   load generator.

   --smoke forks its own daemon (loopback, kernel-assigned ports, a
   deliberately small admission watermark) and runs three phases:

   1. keep-alive: N HTTP/1.1 POST /estimate requests round-robined
      across C persistent connections;
   2. close: the same N requests, one fresh connection each
      (Connection: close) -- over five interleaved rounds of 1 and 2,
      keep-alive's median req/s must beat close's, since each
      close-mode request pays socket setup + accept + teardown;
   3. overload: a pipelined burst far past the queue watermark on one
      connection -- some requests must answer 200, some must shed with
      HTTP 503 + Retry-After, /healthz must answer 200 and /metrics
      must answer while the burst drains, and the daemon must still
      exit 0 on SIGTERM.

   One line goes to BENCH_history.jsonl (source "loadgen") with both
   median throughputs and the shed tally, so the keep-alive advantage is
   tracked over time next to the engine benches.

   Standalone: loadgen --addr HOST:PORT [--mode keepalive|close]
   [--connections C] [--requests N] drives an already-running daemon
   and prints req/s (nothing is forked, nothing is asserted). *)

module Json = Mae_obs.Json

open Smoke_support

let () = prefix := "loadgen"

(* --- the workload: one tiny module, warm in the estimate store after
   the first request, so the measurement isolates the serve plane --- *)

let hdl =
  Mae_hdl.Printer.to_string
    (Mae_workload.Generators.counter ~technology:"nmos25" 4)

let post_request ?(close = false) id =
  let body =
    Json.encode
      (Json.Object [ ("id", Json.Number (Float.of_int id)); ("hdl", Json.String hdl) ])
  in
  Printf.sprintf
    "POST /estimate HTTP/1.1\r\nHost: loadgen\r\n%sContent-Length: %d\r\n\r\n%s"
    (if close then "Connection: close\r\n" else "")
    (String.length body) body

let expect_ok status body =
  if status <> 200 then fail "request answered %d: %S" status body;
  match Json.parse (String.trim body) with
  | Ok doc ->
      if Json.member "ok" doc <> Some (Json.Bool true) then
        fail "request answered ok:false: %S" body
  | Error e -> fail "response not JSON (%s): %S" e body

(* keep-alive: [requests] POSTs round-robined over [connections]
   persistent sockets, lockstep per socket *)
let run_keepalive ~host ~port ~connections ~requests =
  let conns = Array.init connections (fun _ -> (connect_tcp host port, "")) in
  let t0 = Unix.gettimeofday () in
  for i = 0 to requests - 1 do
    let slot = i mod connections in
    let fd, leftover = conns.(slot) in
    write_fully fd (post_request i);
    let status, _, body, rest = recv_http fd leftover in
    expect_ok status body;
    conns.(slot) <- (fd, rest)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Array.iter (fun (fd, _) -> Unix.close fd) conns;
  float_of_int requests /. dt

(* close: a fresh connection per request *)
let run_close ~host ~port ~requests =
  let t0 = Unix.gettimeofday () in
  for i = 0 to requests - 1 do
    let fd = connect_tcp host port in
    write_fully fd (post_request ~close:true i);
    let status, _, body, _ = recv_http fd "" in
    expect_ok status body;
    Unix.close fd
  done;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int requests /. dt

let run_smoke () =
  let watermark = 8 in
  let pid, req_port, obs_port =
    spawn ~prefix:"loadgen daemon" (fun config ->
        { config with Mae_serve.queue_watermark = watermark })
  in
  check (req_port > 0 && obs_port > 0)
    "daemon bound request plane :%d and obs plane :%d" req_port obs_port;
  let host = "127.0.0.1" in
  (* warm the estimate store so both measured phases compare serve-plane
     overhead, not first-estimate cost *)
  ignore (run_close ~host ~port:req_port ~requests:1);
  (* five rounds in K C, C K, K C, ... order, so host drift hits both
     modes alike; the bar is the single-run one, applied to medians *)
  let connections = 4 and requests = 240 and rounds = 5 in
  let keepalive () = run_keepalive ~host ~port:req_port ~connections ~requests in
  let close () = run_close ~host ~port:req_port ~requests in
  let runs =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let k = keepalive () in
          (k, close ())
        else
          let c = close () in
          (keepalive (), c))
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let keepalive_rps = median (List.map fst runs)
  and close_rps = median (List.map snd runs) in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.0f") xs) in
  Printf.printf "keep-alive: %s req/s over %d connections\n%!"
    (show (List.map fst runs)) connections;
  Printf.printf "close:      %s req/s, one connection per request\n%!"
    (show (List.map snd runs));
  check
    (keepalive_rps > close_rps)
    "keep-alive beats connection-per-request on the median of %d rounds \
     (%.0f > %.0f req/s)"
    rounds keepalive_rps close_rps;

  (* overload: pipeline a burst far past the watermark on one
     connection; the prefix estimates, the excess answers 503 *)
  let burst = 64 in
  let fd = connect_tcp host req_port in
  let b = Buffer.create 8192 in
  for i = 1 to burst do
    Buffer.add_string b (post_request i)
  done;
  write_fully fd (Buffer.contents b);
  (* the obs plane must keep answering while the burst drains: scrapes
     bypass the request queue, and liveness stays 200 -- shedding is
     the overload answer, not /healthz *)
  let health_status = status_of (fst (get ~port:obs_port "/healthz")) in
  check (health_status = 200)
    "/healthz answers 200 during the burst (answered %d)" health_status;
  let metrics_status = status_of (fst (get ~port:obs_port "/metrics")) in
  check (metrics_status = 200) "/metrics responsive during the burst";
  let oks = ref 0 and sheds = ref 0 in
  let leftover = ref "" in
  for i = 1 to burst do
    let status, head, body, rest = recv_http fd !leftover in
    leftover := rest;
    (match status with
    | 200 -> incr oks
    | 503 ->
        if index_sub head "Retry-After:" = None then
          fail "503 response %d lacks Retry-After: %S" i head;
        incr sheds
    | s -> fail "burst response %d answered %d: %S" i s body);
    ignore body
  done;
  Unix.close fd;
  check
    (!oks >= 1 && !sheds >= 1 && !oks + !sheds = burst)
    "burst of %d past watermark %d: %d answered 200, %d shed 503" burst
    watermark !oks !sheds;
  let _, metrics_body = get ~port:obs_port "/metrics" in
  check
    (int_of_float (prom_value metrics_body "mae_serve_requests_shed_total")
    = !sheds)
    "mae_serve_requests_shed_total agrees with the client (%d)" !sheds;
  check
    (prom_value metrics_body "mae_serve_connections_reused_total" >= 1.)
    "keep-alive connections counted as reused";

  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  check (status = Unix.WEXITED 0) "daemon drained and exited 0 after the burst";

  Bench_history.History.append ~source:"loadgen"
    [
      ("keepalive_rps", Json.Number keepalive_rps);
      ("close_rps", Json.Number close_rps);
      ("connections", Json.Number (Float.of_int connections));
      ("requests", Json.Number (Float.of_int requests));
      ("burst", Json.Number (Float.of_int burst));
      ("shed", Json.Number (Float.of_int !sheds));
    ];
  print_endline "load-smoke: all checks passed"

(* --- standalone mode --- *)

let usage () =
  prerr_endline
    "usage: loadgen --smoke\n\
    \       loadgen --addr HOST:PORT [--mode keepalive|close]\n\
    \               [--connections C] [--requests N]";
  exit 2

let run_standalone ~addr ~mode ~connections ~requests =
  let host, port =
    match String.rindex_opt addr ':' with
    | Some i -> (
        let host = String.sub addr 0 i in
        let p = String.sub addr (i + 1) (String.length addr - i - 1) in
        match int_of_string_opt p with
        | Some port -> ((if host = "" then "127.0.0.1" else host), port)
        | None -> fail "bad port in --addr %s" addr)
    | None -> (
        match int_of_string_opt addr with
        | Some port -> ("127.0.0.1", port)
        | None -> fail "bad --addr %s (want HOST:PORT)" addr)
  in
  let rps =
    match mode with
    | "keepalive" -> run_keepalive ~host ~port ~connections ~requests
    | "close" -> run_close ~host ~port ~requests
    | m -> fail "bad --mode %s (want keepalive or close)" m
  in
  Printf.printf "%s: %.0f req/s (%d requests, %d connection%s)\n" mode rps
    requests
    (if mode = "close" then requests else connections)
    (if mode = "close" || connections > 1 then "s" else "")

let () =
  let addr = ref None in
  let mode = ref "keepalive" in
  let connections = ref 4 in
  let requests = ref 200 in
  let smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--addr" :: v :: rest ->
        addr := Some v;
        parse rest
    | "--mode" :: v :: rest ->
        mode := v;
        parse rest
    | "--connections" :: v :: rest ->
        connections := (match int_of_string_opt v with
          | Some n when n >= 1 -> n
          | _ -> fail "--connections wants a positive integer");
        parse rest
    | "--requests" :: v :: rest ->
        requests := (match int_of_string_opt v with
          | Some n when n >= 1 -> n
          | _ -> fail "--requests wants a positive integer");
        parse rest
    | a :: _ ->
        prerr_endline ("loadgen: unknown argument " ^ a);
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* SIGPIPE must not kill the client when the daemon sheds a
     connection mid-write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if !smoke then run_smoke ()
  else
    match !addr with
    | None -> usage ()
    | Some addr ->
        run_standalone ~addr ~mode:!mode ~connections:!connections
          ~requests:!requests

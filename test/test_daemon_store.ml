(* The serve daemon end to end, forked.  Estimate-store accounting: a
   daemon with a journal answers line-JSON requests, and each request's
   store traffic shows in its [cached] flag, the process-wide
   mae_estimate_cache_{hits,misses}_total counters on /metrics, and the
   entries appended to the journal.  And a peer that never reads its
   answers: the daemon keeps answering everyone else. *)

module Json = Mae_obs.Json
open Smoke_support

let hdl circuits =
  String.concat "\n" (List.map Mae_hdl.Printer.to_string circuits)

let stored =
  List.map (Mae_workload.Generators.counter ~technology:"nmos25") [ 4; 5; 6 ]

let fresh =
  [
    Mae_workload.Generators.parity ~technology:"nmos25" 5;
    Mae_workload.Generators.decoder ~technology:"nmos25" 3;
    Mae_workload.Generators.ripple_adder ~technology:"nmos25" 3;
    Mae_workload.Generators.mux_tree ~technology:"nmos25" 2;
  ]

let lost = Mae_workload.Generators.counter ~technology:"unobtanium" 4

type daemon = {
  pid : int;
  obs_port : int;
  journal : string;
  ic : in_channel;
  fd : Unix.file_descr;
}

let with_daemon f =
  let journal = Filename.temp_file "mae_daemon_store" ".journal" in
  Sys.remove journal;
  let pid, req_port, obs_port =
    spawn ~prefix:"daemon-store child" (fun config ->
        { config with Mae_serve.store_journal = Some journal })
  in
  let fd = connect_tcp "127.0.0.1" req_port in
  let d = { pid; obs_port; journal; ic = Unix.in_channel_of_descr fd; fd } in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists journal then Sys.remove journal)
    (fun () -> f d)

(* One line-JSON request, its parsed response. *)
let request d circuits =
  let line =
    Json.encode (Json.Object [ ("hdl", Json.String (hdl circuits)) ]) ^ "\n"
  in
  write_fully d.fd line;
  match Json.parse (input_line d.ic) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "response is not JSON: %s" e

let bool_member name doc =
  match Json.member name doc with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response lacks %s" name

let modules doc =
  match Json.member "modules" doc with
  | Some (Json.Array l) -> l
  | _ -> Alcotest.fail "response lacks modules"

(* (hits, misses) of the estimate store, from /metrics *)
let store_counts d =
  let _, body = get ~port:d.obs_port "/metrics" in
  ( int_of_float (prom_value body "mae_estimate_cache_hits_total"),
    int_of_float (prom_value body "mae_estimate_cache_misses_total") )

let journal_entries d =
  if not (Sys.file_exists d.journal) then 0
  else
    In_channel.with_open_bin d.journal In_channel.input_lines
    |> List.filter (String.starts_with ~prefix:"entry ")
    |> List.length

(* The store's effect of one request: its response, the hit/miss
   counter deltas and the journal entries it appended. *)
let measured d circuits =
  let counts0 = store_counts d and entries0 = journal_entries d in
  let doc = request d circuits in
  let hits, misses = store_counts d in
  (doc, (hits - fst counts0, misses - snd counts0), journal_entries d - entries0)

let counts = Alcotest.(pair int int)

let test_store_accounting () =
  with_daemon @@ fun d ->
  let cold, cold_counts, cold_inserts = measured d stored in
  Alcotest.(check bool) "cold request is computed" false
    (bool_member "cached" cold);
  Alcotest.check counts "cold request misses every module" (0, 3) cold_counts;
  Alcotest.(check int) "cold request stores every module" 3 cold_inserts;
  let warm, warm_counts, warm_inserts = measured d stored in
  Alcotest.(check bool) "fully stored request answers cached" true
    (bool_member "cached" warm);
  Alcotest.check counts "fully stored request hits every module" (3, 0)
    warm_counts;
  Alcotest.(check int) "a hit stores nothing" 0 warm_inserts;
  Alcotest.(check string) "stored answer is byte-identical to the computed one"
    (Json.encode (Json.Array (modules cold)))
    (Json.encode (Json.Array (modules warm)));
  let mixed, mixed_counts, mixed_inserts = measured d (stored @ fresh) in
  Alcotest.(check bool) "3 stored + 4 new is not cached" false
    (bool_member "cached" mixed);
  Alcotest.(check bool) "3 stored + 4 new is ok" true (bool_member "ok" mixed);
  Alcotest.check counts "3 stored + 4 new moves hits/misses by 3/4" (3, 4)
    mixed_counts;
  Alcotest.(check int) "only the 4 new modules are stored" 4 mixed_inserts;
  Alcotest.(check string) "stored modules answer in input order, unchanged"
    (Json.encode (Json.Array (modules cold)))
    (Json.encode
       (Json.Array (List.filteri (fun i _ -> i < 3) (modules mixed))));
  let unknown, unknown_counts, unknown_inserts = measured d [ lost ] in
  Alcotest.(check bool) "unknown process fails the request" false
    (bool_member "ok" unknown);
  (match modules unknown with
  | [ slot ] ->
      Alcotest.(check bool) "unknown process gets an error slot" true
        (Option.is_some (Json.member "error" slot))
  | l -> Alcotest.failf "want one module slot, got %d" (List.length l));
  Alcotest.check counts "unknown process is never looked up" (0, 0)
    unknown_counts;
  Alcotest.(check int) "unknown process is never stored" 0 unknown_inserts;
  let empty, empty_counts, empty_inserts = measured d [] in
  Alcotest.(check bool) "empty request is ok" true (bool_member "ok" empty);
  Alcotest.(check bool) "empty request is not cached" false
    (bool_member "cached" empty);
  Alcotest.(check int) "empty request has no modules" 0
    (List.length (modules empty));
  Alcotest.check counts "empty request looks nothing up" (0, 0) empty_counts;
  Alcotest.(check int) "empty request stores nothing" 0 empty_inserts

let now = Unix.gettimeofday

(* Connection A shrinks its receive window, pipelines requests whose
   answers echo a 10 KB id, and never reads.  Connection B's request
   must still be answered within a second, and A, once its unread
   answers pass the daemon's cap, is closed and counted. *)
let test_non_reading_peer () =
  let pid, req_port, obs_port = spawn ~prefix:"daemon-store child" Fun.id in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid))
  @@ fun () ->
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, req_port));
  Unix.set_nonblock a;
  let request =
    Json.encode (Json.Object [ ("id", Json.String (String.make 10_000 'i')) ])
    ^ "\n"
  in
  let batch = String.concat "" (List.init 100 (fun _ -> request)) in
  let total = 20 * String.length batch in
  (* push 2 000 requests, for at most a second: a daemon stuck writing
     to A stops reading them *)
  let deadline = now () +. 1.0 in
  let rec push sent =
    if sent < total && now () < deadline then
      let off = sent mod String.length batch in
      match Unix.write_substring a batch off (String.length batch - off) with
      | w -> push (sent + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Unix.sleepf 0.002;
          push sent
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  push 0;
  let b = connect_tcp "127.0.0.1" req_port in
  let t0 = now () in
  write_fully b "{\"id\": \"b\"}\n";
  let answer = Buffer.create 128 in
  let chunk = Bytes.create 4096 in
  let rec await () =
    let left = t0 +. 1.0 -. now () in
    if left > 0. && not (String.contains (Buffer.contents answer) '\n') then
      match Unix.select [ b ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read b chunk 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes answer chunk 0 n;
              await ())
  in
  await ();
  let elapsed = now () -. t0 in
  Unix.close b;
  if not (String.contains (Buffer.contents answer) '\n') then
    Alcotest.failf "B got no answer within 1 s (got %S)" (Buffer.contents answer);
  Alcotest.(check bool) (Printf.sprintf "B answered in %.3f s" elapsed) true
    (elapsed < 1.0);
  (match Json.parse (String.trim (Buffer.contents answer)) with
  | Ok doc ->
      Alcotest.(check bool) "B's own answer" true
        (Json.member "id" doc = Some (Json.String "b"))
  | Error e -> Alcotest.failf "B's answer is not JSON: %s" e);
  let stalled () =
    let _, body = get ~port:obs_port "/metrics" in
    prom_value body "mae_serve_connections_stalled_closed_total"
  in
  let rec wait_closed tries =
    if stalled () < 1. && tries > 0 then begin
      Unix.sleepf 0.05;
      wait_closed (tries - 1)
    end
  in
  wait_closed 100;
  Alcotest.(check bool) "A closed past the unsent cap, and counted" true
    (stalled () >= 1.);
  Unix.close a

let () =
  (* the daemon is forked inside the test, before anything in this
     process spawns a domain *)
  Alcotest.run "daemon store"
    [
      ( "accounting",
        [
          Alcotest.test_case "per-request hits, misses and inserts" `Quick
            test_store_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "a peer that never reads stalls nobody" `Quick
            test_non_reading_peer;
        ] );
    ]

(* Scaffolding shared by the smoke gates: fail/check reporting, a
   loopback HTTP client, /metrics lookups, and the forked daemon that
   @serve-smoke and @load-smoke drive. *)

(* Leads every failure message; each gate sets it once at startup. *)
let prefix = ref "smoke"

(* Daemons forked by {!spawn}.  A failing gate kills the ones it has not
   reaped yet, so a failed run leaves no daemon behind; a reaped pid
   makes [waitpid] raise and is skipped, so a recycled pid is never
   signalled. *)
let daemons = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (!prefix ^ ": " ^ msg);
      List.iter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> Unix.kill pid Sys.sigkill
          | _ | (exception Unix.Unix_error _) -> ())
        !daemons;
      exit 1)
    fmt

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then fail "%s" msg else Printf.printf "ok: %s\n%!" msg)
    fmt

(* --- tiny HTTP client --- *)

let index_sub hay needle =
  let nn = String.length needle and nh = String.length hay in
  let rec at i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else at (i + 1)
  in
  at 0

let contains hay needle = index_sub hay needle <> None

let write_fully fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let connect_tcp host port =
  let inet =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (inet, port));
  fd

(* The status code of a response head ("HTTP/1.1 503 ..."), 0 when
   there is none. *)
let status_of head =
  match index_sub head " " with
  | Some sp when String.length head >= sp + 4 ->
      Option.value ~default:0 (int_of_string_opt (String.sub head (sp + 1) 3))
  | _ -> 0

(* One Content-Length-framed response: (status, head, body, rest).
   [leftover] carries bytes already read past the previous response on
   this connection; [rest] is what this read took past its own. *)
let recv_http fd leftover =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf leftover;
  let chunk = Bytes.create 65536 in
  let rec fill_until probe =
    match probe (Buffer.contents buf) with
    | Some v -> v
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> fail "EOF mid HTTP response (got %S)" (Buffer.contents buf)
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            fill_until probe)
  in
  let head_end = fill_until (fun s -> index_sub s "\r\n\r\n") in
  let head = String.sub (Buffer.contents buf) 0 head_end in
  let content_length =
    let lower = String.lowercase_ascii head in
    match index_sub lower "content-length:" with
    | None -> fail "HTTP response without Content-Length: %S" head
    | Some i -> (
        let rest = String.sub lower (i + 15) (String.length lower - i - 15) in
        match
          int_of_string_opt (String.trim (List.hd (String.split_on_char '\r' rest)))
        with
        | Some n -> n
        | None -> fail "bad Content-Length in %S" head)
  in
  let body_start = head_end + 4 in
  let total_len = body_start + content_length in
  ignore
    (fill_until (fun s -> if String.length s >= total_len then Some 0 else None));
  let raw = Buffer.contents buf in
  ( status_of head,
    head,
    String.sub raw body_start content_length,
    String.sub raw total_len (String.length raw - total_len) )

(* HTTP/1.0 GET on loopback: the daemon closes after answering, so the
   response is everything up to EOF.  Returns (head, body). *)
let get ~port path =
  let fd = connect_tcp "127.0.0.1" port in
  write_fully fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close fd;
  let raw = Buffer.contents buf in
  let split_at marker =
    Option.map
      (fun i ->
        let after = i + String.length marker in
        (String.sub raw 0 i, String.sub raw after (String.length raw - after)))
      (index_sub raw marker)
  in
  match split_at "\r\n\r\n" with
  | Some parts -> parts
  | None -> (
      match split_at "\n\n" with
      | Some parts -> parts
      | None -> fail "HTTP response to %s has no header/body split" path)

(* --- /metrics lookups --- *)

(* One sample line of Prometheus text: the metric name with its label
   block stripped, its [quantile="q"] label if any, and the value. *)
type sample = {
  pm_name : string;
  pm_quantile : float option;
  pm_value : float;
}

(* Comment lines and lines that do not end in a number are skipped. *)
let parse_prometheus text =
  let parse_line line =
    if line = "" || line.[0] = '#' then None
    else
      Option.bind (String.rindex_opt line ' ') (fun sp ->
          let series = String.sub line 0 sp in
          let raw = String.sub line (sp + 1) (String.length line - sp - 1) in
          let pm_name =
            match String.index_opt series '{' with
            | None -> series
            | Some b -> String.sub series 0 b
          in
          let pm_quantile =
            let marker = "quantile=\"" in
            Option.bind (index_sub series marker) (fun start ->
                let v = start + String.length marker in
                Option.bind (String.index_from_opt series v '"') (fun e ->
                    float_of_string_opt (String.sub series v (e - v))))
          in
          Option.map
            (fun pm_value -> { pm_name; pm_quantile; pm_value })
            (float_of_string_opt raw))
  in
  List.filter_map parse_line (String.split_on_char '\n' text)

(* The first unlabelled sample of [name] (counters, gauges). *)
let metric_value samples name =
  List.find_map
    (fun s ->
      if s.pm_name = name && s.pm_quantile = None then Some s.pm_value
      else None)
    samples

(* Every [(quantile, value)] sample of the summary [name]. *)
let sketch_quantiles samples name =
  List.filter_map
    (fun s ->
      match s.pm_quantile with
      | Some q when s.pm_name = name -> Some (q, s.pm_value)
      | _ -> None)
    samples

(* The value of an unlabelled sample [name] in a /metrics body. *)
let prom_value body name =
  match metric_value (parse_prometheus body) name with
  | Some v -> v
  | None -> fail "metric %s not in /metrics" name

(* --- the forked daemon --- *)

(* Fork a Mae_serve daemon with both planes on loopback TCP port 0 and
   return (pid, request port, obs port) once it has bound them.
   [tweak] runs in the child, after logging is switched off and before
   the daemon starts, and edits the default config; [prefix] leads the
   child's error line if the daemon fails.  OCaml 5 forbids fork once
   other domains exist, so spawn before anything runs the engine at
   jobs >= 2. *)
let spawn ~prefix tweak =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      daemons := [];
      Mae_obs.Log.set_threshold None;
      let registry = Mae_tech.Registry.create () in
      let loopback = Mae_serve.Tcp { host = "127.0.0.1"; port = 0 } in
      let config =
        tweak
          {
            (Mae_serve.default_config ~registry ~request_addr:loopback) with
            Mae_serve.obs_addr = Some loopback;
          }
      in
      let on_ready ~request_addr ~obs_addr =
        let port = function
          | Mae_serve.Tcp { port; _ } -> port
          | Mae_serve.Unix_sock _ -> 0
        in
        let line =
          Printf.sprintf "%d %d\n" (port request_addr)
            (match obs_addr with Some a -> port a | None -> 0)
        in
        write_fully w line;
        Unix.close w
      in
      (match Mae_serve.run { config with Mae_serve.on_ready } with
      | Ok () -> Unix._exit 0
      | Error e ->
          prerr_endline (prefix ^ ": " ^ e);
          Unix._exit 1)
  | pid -> (
      daemons := pid :: !daemons;
      Unix.close w;
      let buf = Bytes.create 64 in
      let n = Unix.read r buf 0 64 in
      Unix.close r;
      if n = 0 then fail "daemon died before announcing its ports";
      let ports = String.trim (Bytes.sub_string buf 0 n) in
      match String.split_on_char ' ' ports with
      | [ req; obs ] -> (pid, int_of_string req, int_of_string obs)
      | _ -> fail "bad ready line %S" ports)

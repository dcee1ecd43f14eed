(* The open-loop load generator: requests go out on a fixed schedule
   whatever the daemon's state, pipelined over a few persistent
   connections, and each is timed from when it was due.  One process,
   one select loop; response bodies are kept for checking after the
   timed window. *)

type dialect = Http | Line

let now = Mae_obs.Clock.monotonic

(* The wire bytes of one estimate request. *)
let payload dialect hdl =
  let body = "{\"hdl\": " ^ Mae_obs.Json.escape hdl ^ "}" in
  match dialect with
  | Line -> body ^ "\n"
  | Http ->
      Printf.sprintf
        "POST /estimate HTTP/1.1\r\nHost: perfbench\r\n\
         Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
        (String.length body) body

type conn = {
  fd : Unix.file_descr;
  out : string Queue.t;  (** unsent requests; the head is partly sent *)
  mutable out_pos : int;
  mutable inbuf : string;
  waiting : int Queue.t;  (** request indices awaiting a response, FIFO *)
}

let open_conn port =
  let fd = Proc.connect port in
  Unix.set_nonblock fd;
  {
    fd;
    out = Queue.create ();
    out_pos = 0;
    inbuf = "";
    waiting = Queue.create ();
  }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type result = {
  due : float array;  (** scheduled send instants *)
  late : float array;  (** how late the generator handed each over *)
  latency : float array;  (** due -> response received; nan if none *)
  status : int array;  (** HTTP status (200 on line JSON); 0 if none *)
  body : string array;
  backlog_end : int;  (** unanswered when the last request was sent *)
  sent : int;  (** requests sent: all of them unless the phase aborted *)
}

(* One complete response at the front of [s]: (status, body, bytes). *)
let parse_frame dialect s =
  match dialect with
  | Line -> (
      match String.index_opt s '\n' with
      | None -> None
      | Some i -> Some (200, String.sub s 0 i, i + 1))
  | Http -> (
      let rec find_end i =
        if i + 3 >= String.length s then None
        else if
          s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
        then Some i
        else find_end (i + 1)
      in
      match find_end 0 with
      | None -> None
      | Some h ->
          let lines = String.split_on_char '\n' (String.sub s 0 h) in
          let status =
            match String.split_on_char ' ' (List.hd lines) with
            | _ :: code :: _ -> int_of_string code
            | _ -> failwith "bad HTTP status line"
          in
          let length =
            List.find_map
              (fun l ->
                match String.index_opt l ':' with
                | Some i
                  when String.lowercase_ascii (String.sub l 0 i)
                       = "content-length" ->
                    Some
                      (int_of_string
                         (String.trim
                            (String.sub l (i + 1) (String.length l - i - 1))))
                | _ -> None)
              lines
            |> Option.value ~default:0
          in
          let total = h + 4 + length in
          if String.length s < total then None
          else Some (status, String.sub s (h + 4) length, total))

let chunk = Bytes.create 65536

(* The daemon leaves Nagle's algorithm on, so a pipelined response
   waits for the ACK of the one before it; with the kernel's delayed
   ACKs that wait reaches tens of milliseconds and varies from run to
   run.  The client acknowledges at once after every read. *)
external quickack : Unix.file_descr -> unit = "perfbench_quickack"

(* Timed sleeps on small hosts can overshoot by several milliseconds,
   which would make the generator late.  With a spare core the loop
   polls instead of sleeping once the next send is near; on one core
   it sleeps, and a late generator has its latencies withheld. *)
let spin = Domain.recommended_domain_count () >= 2
let spin_window = 0.025

let select_timeout t =
  if not spin then t else if t > spin_window then t -. spin_window else 0.

(* Write queued requests until the socket would block. *)
let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some head -> (
      let len = String.length head - c.out_pos in
      match Unix.single_write_substring c.fd head c.out_pos len with
      | k when k = len ->
          ignore (Queue.pop c.out);
          c.out_pos <- 0;
          flush c
      | k -> c.out_pos <- c.out_pos + k
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ())

(* Read what has arrived; [on_frame i t status body] for each complete
   response, [i] being the request it answers and [t] the read instant. *)
let receive dialect c ~on_frame =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed a connection"
  | k ->
      let t = now () in
      quickack c.fd;
      c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 k;
      let rec frames () =
        match parse_frame dialect c.inbuf with
        | None -> ()
        | Some (st, b, used) ->
            c.inbuf <- String.sub c.inbuf used (String.length c.inbuf - used);
            on_frame (Queue.pop c.waiting) t st b;
            frames ()
      in
      frames ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* One select round over [conns]: write where writable, read where
   readable, wait at most [timeout]. *)
let pump dialect conns ~timeout ~on_frame =
  let writers =
    Array.to_list conns
    |> List.filter (fun c -> not (Queue.is_empty c.out))
    |> List.map (fun c -> c.fd)
  in
  let readers = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select readers writers [] timeout with
  | r, w, _ ->
      Array.iter
        (fun c ->
          if List.memq c.fd w then flush c;
          if List.memq c.fd r then receive dialect c ~on_frame)
        conns
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Drive [payloads] at [rate] requests/s round-robin over [conns];
   waits for every answer up to [drain_s] after the last send.  With
   [max_backlog], sending stops early once more requests than that are
   unanswered: the phase has failed, and overloading the daemon
   further would only lengthen the drain. *)
let run ?(max_backlog = max_int) ~dialect ~conns ~rate ~drain_s payloads =
  let n = Array.length payloads in
  let conns = Array.of_list conns in
  let nc = Array.length conns in
  let start = now () +. 0.005 in
  let due = Array.init n (fun i -> start +. (Float.of_int i /. rate)) in
  let late = Array.make n Float.nan in
  let latency = Array.make n Float.nan in
  let status = Array.make n 0 in
  let body = Array.make n "" in
  let next = ref 0 and answered = ref 0 and backlog_end = ref 0 in
  let deadline = ref (if n = 0 then start else due.(n - 1) +. drain_s) in
  let stop_at = ref n in
  let on_frame i t st b =
    latency.(i) <- t -. due.(i);
    status.(i) <- st;
    body.(i) <- b;
    incr answered
  in
  let rec loop () =
    let t = now () in
    while !next < !stop_at && due.(!next) <= t do
      let i = !next in
      let c = conns.(i mod nc) in
      late.(i) <- t -. due.(i);
      Queue.add payloads.(i) c.out;
      Queue.add i c.waiting;
      flush c;
      incr next;
      if !next - !answered > max_backlog then begin
        stop_at := !next;
        deadline := t +. drain_s
      end;
      if !next = !stop_at then backlog_end := !next - !answered
    done;
    if !answered < !stop_at && t < !deadline then begin
      let wake = if !next < !stop_at then due.(!next) else !deadline in
      pump dialect conns ~on_frame
        ~timeout:(select_timeout (Float.max 0. (wake -. now ())));
      loop ()
    end
  in
  loop ();
  let sent = !stop_at in
  let keep a = Array.sub a 0 sent in
  {
    due = keep due;
    late = keep late;
    latency = keep latency;
    status = keep status;
    body = keep body;
    backlog_end = !backlog_end;
    sent;
  }

(* Whether every request sent was answered (connections in sync). *)
let complete r = Array.for_all (fun s -> s <> 0) r.status

(* Closed loop at saturation: keep [depth] requests outstanding on each
   connection until all [Array.length payloads] have been sent, then
   drain.  Returns each request's completion instant and its (status,
   body), in send order. *)
let saturate ~dialect ~conns ~depth payloads =
  let conns = Array.of_list conns in
  let n = Array.length payloads in
  let sent = ref 0 and answered = ref 0 in
  let answers = Array.make n (Float.nan, (0, "")) in
  let deadline = now () +. 60. in
  let on_frame i t st b =
    answers.(i) <- (t, (st, b));
    incr answered
  in
  let rec loop () =
    Array.iter
      (fun c ->
        while !sent < n && Queue.length c.waiting < depth do
          Queue.add payloads.(!sent) c.out;
          Queue.add !sent c.waiting;
          incr sent
        done;
        flush c)
      conns;
    if !answered < n && now () < deadline then begin
      pump dialect conns ~timeout:0.05 ~on_frame;
      loop ()
    end
  in
  loop ();
  if !answered < n then failwith "saturation phase: requests unanswered";
  answers

(* A GET on a fresh connection (Connection: close): the body. *)
let get port path =
  let fd = Proc.connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let req =
        Printf.sprintf "GET %s HTTP/1.0\r\nHost: perfbench\r\n\r\n" path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 65536 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            read ()
      in
      read ();
      match parse_frame Http (Buffer.contents buf) with
      | Some (200, b, _) -> b
      | _ -> failwith ("GET " ^ path ^ " failed"))


(* Child processes of the benchmark: the mae CLI and the serve daemon.
   Every child is waited for with wait4, which also yields its peak
   resident set (VmHWM) for [peak_rss_mb]. *)

external wait4 : int -> int * int = "perfbench_wait4"

let now = Mae_obs.Clock.monotonic

(* Children still running, killed on any exit path. *)
let live : int list ref = ref []

let spawn ~stdout ~stderr prog args =
  let out = Unix.openfile stdout [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err =
    if stderr = stdout then out
    else Unix.openfile stderr [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null out err
  in
  List.iter Unix.close (if err == out then [ null; out ] else [ null; out; err ]);
  live := pid :: !live;
  pid

type exit_info = { code : int; peak_rss_mib : float }

let wait pid =
  let code, maxrss_kib = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  { code; peak_rss_mib = Float.of_int maxrss_kib /. 1024. }

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait pid) with Failure _ -> ())
    !live

(* One CLI run from exec to exit. *)
let run ~stdout ~stderr prog args =
  let t0 = now () in
  let pid = spawn ~stdout ~stderr prog args in
  let info = wait pid in
  (now () -. t0, info)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- the serve daemon --- *)

type daemon = { pid : int; port : int; stderr : string }

let ready_prefix = "mae: serving estimation requests on 127.0.0.1:"

(* The port from the daemon's "serving ... on" line, once written. *)
let find_port path =
  match read_file path with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:ready_prefix line then
            int_of_string_opt
              (String.sub line (String.length ready_prefix)
                 (String.length line - String.length ready_prefix))
          else None)
        (String.split_on_char '\n' text)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd TCP_NODELAY true;
      fd
  | exception e ->
      Unix.close fd;
      raise e

(* Start [mae serve] on a kernel-chosen loopback port; returns the
   daemon and its set-up time: exec until the listener accepts. *)
let start_daemon ~mae ~stderr args =
  let t0 = now () in
  let pid =
    spawn ~stdout:stderr ~stderr mae
      ([ "serve"; "--listen"; "127.0.0.1:0"; "--jobs"; "1" ] @ args)
  in
  let deadline = t0 +. 30. in
  let rec await () =
    if now () > deadline then failwith "daemon did not start within 30 s";
    match find_port stderr with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith ("daemon exited at start-up; see " ^ stderr)
        | exception Unix.Unix_error _ -> ());
        Unix.sleepf 0.0002;
        await ()
  in
  let port = await () in
  Unix.close (connect port);
  ({ pid; port; stderr }, now () -. t0)

(* The daemon's peak resident set so far (VmHWM), in MiB. *)
let vm_hwm_mib d =
  let status = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  match
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
  with
  | Some kib -> Float.of_int kib /. 1024.
  | None -> failwith "no VmHWM in /proc status"

(* SIGTERM, drain, reap. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let info = wait d.pid in
  if info.code <> 0 then
    failwith (Printf.sprintf "daemon exited with %d; see %s" info.code d.stderr);
  info

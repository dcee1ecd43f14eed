(* The metrics registry: named counters and gauges.

   Values are plain atomics, so instruments are safe to update from
   any domain and cost what the hand-rolled counters they replace
   cost.  Registration is idempotent -- asking for an existing name of
   the same kind returns the registered instrument, so library
   initialization order never matters -- and mutex-protected; updates
   never take the lock.

   Counters and gauges stay live even when telemetry is off (they back
   always-on reporting such as [Kernel_cache.stats] and the engine's
   [--stats] line).  Latencies live in {!Sketch}, not here. *)

type counter = { c_name : string; c_help : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_bits : int64 Atomic.t }

type metric = Counter of counter | Gauge of gauge

let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 32

(* Registry-time lint: every instrument in this codebase is namespaced
   mae_<subsystem>_..., lowercase snake.  Rejecting anything else at
   registration catches naming drift the moment a PR introduces it,
   instead of in a dashboard review months later. *)
let valid_name name =
  String.length name > 4
  && String.equal (String.sub name 0 4) "mae_"
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let lint_name ?(what = "Mae_obs.Metrics") name =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf "%s: metric name %S does not match mae_[a-z0-9_]+" what
         name)

let register name make classify =
  lint_name name;
  Mutex.lock lock;
  let result =
    match Hashtbl.find_opt table name with
    | Some existing -> classify existing
    | None ->
        let m, v = make () in
        Hashtbl.add table name m;
        Ok v
  in
  Mutex.unlock lock;
  match result with
  | Ok v -> v
  | Error kind ->
      invalid_arg
        (Printf.sprintf "Mae_obs.Metrics: %s already registered as a %s" name
           kind)

(* --- counters --- *)

let counter ?(help = "") name =
  register name
    (fun () ->
      let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
      (Counter c, c))
    (function Counter c -> Ok c | Gauge _ -> Error "gauge")

let incr c = Atomic.incr c.c_value
let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value
let reset_counter c = Atomic.set c.c_value 0

(* --- gauges --- *)

let gauge ?(help = "") name =
  register name
    (fun () ->
      let g =
        { g_name = name; g_help = help; g_bits = Atomic.make (Int64.bits_of_float 0.) }
      in
      (Gauge g, g))
    (function Gauge g -> Ok g | Counter _ -> Error "counter")

let set g v = Atomic.set g.g_bits (Int64.bits_of_float v)
let gauge_value g = Int64.float_of_bits (Atomic.get g.g_bits)

(* --- introspection --- *)

let find_counter name =
  Mutex.lock lock;
  let r = Hashtbl.find_opt table name in
  Mutex.unlock lock;
  match r with Some (Counter c) -> Some c | _ -> None

let find_gauge name =
  Mutex.lock lock;
  let r = Hashtbl.find_opt table name in
  Mutex.unlock lock;
  match r with Some (Gauge g) -> Some g | _ -> None

let sorted_metrics () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) table [] in
  Mutex.unlock lock;
  let name = function Counter c -> c.c_name | Gauge g -> g.g_name in
  List.sort (fun a b -> String.compare (name a) (name b)) all

let reset_values () =
  List.iter
    (function Counter c -> reset_counter c | Gauge g -> set g 0.)
    (sorted_metrics ())

(* --- exporters --- *)

(* Sibling modules (Sketch) contribute their own sections to the
   shared dumps without Metrics depending on them: each hook supplies
   a Prometheus-text fragment and a JSON object keyed at the top
   level.  Registration is idempotent by key. *)
type exposition = {
  e_key : string;
  e_prometheus : unit -> string;
  e_json : unit -> string;
}

let expositions : exposition list ref = ref []

let register_exposition ~key ~prometheus ~json =
  Mutex.lock lock;
  if not (List.exists (fun e -> String.equal e.e_key key) !expositions) then
    expositions :=
      !expositions @ [ { e_key = key; e_prometheus = prometheus; e_json = json } ];
  Mutex.unlock lock

let current_expositions () =
  Mutex.lock lock;
  let es = !expositions in
  Mutex.unlock lock;
  es

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus () =
  let buf = Buffer.create 1024 in
  let header name help kind =
    (* Every metric gets HELP and TYPE lines; an instrument registered
       without help falls back to its own name so scrapers always see
       a complete exposition. *)
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name
         (if String.equal help "" then name else help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (function
      | Counter c ->
          header c.c_name c.c_help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" c.c_name (counter_value c))
      | Gauge g ->
          header g.g_name g.g_help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" g.g_name (float_repr (gauge_value g))))
    (sorted_metrics ());
  List.iter (fun e -> Buffer.add_string buf (e.e_prometheus ()))
    (current_expositions ());
  Buffer.contents buf

let to_json () =
  let buf = Buffer.create 1024 in
  let counters = ref [] and gauges = ref [] in
  List.iter
    (function
      | Counter c ->
          counters :=
            Printf.sprintf "%s: %d" (Json.escape c.c_name) (counter_value c)
            :: !counters
      | Gauge g ->
          gauges :=
            Printf.sprintf "%s: %s" (Json.escape g.g_name)
              (float_repr (gauge_value g))
            :: !gauges)
    (sorted_metrics ());
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"counters\": {%s},\n"
       (String.concat ", " (List.rev !counters)));
  let extras = current_expositions () in
  Buffer.add_string buf
    (Printf.sprintf "  \"gauges\": {%s}%s\n"
       (String.concat ", " (List.rev !gauges))
       (if extras = [] then "" else ","));
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %s%s\n" (Json.escape e.e_key) (e.e_json ())
           (if i < List.length extras - 1 then "," else "")))
    extras;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ~path contents =
  match open_out path with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents);
      Ok ()
  | exception Sys_error msg -> Error msg

let write_prometheus ~path = write_file ~path (to_prometheus ())
let write_json ~path = write_file ~path (to_json ())

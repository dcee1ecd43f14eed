(* The metrics registry: every instrument of the process -- counters,
   gauges and GK latency summaries -- in one name-checked table, and
   the one exporter that writes it as Prometheus text or JSON.

   Counter and gauge values are plain atomics, so instruments are safe
   to update from any domain and cost what the hand-rolled counters
   they replace cost.  A summary is a family of {!Sketch}es, one per
   constant label set.  Registration is idempotent -- asking for an
   existing name of the same kind returns the registered instrument, so
   library initialization order never matters -- and mutex-protected;
   updates never take the registry lock.

   The table is keyed by every series name a family exposes: a counter
   or gauge owns its name, a summary owns its name and its [_sum] and
   [_count] series.  A registration whose series name another family
   already owns raises, so no exposition carries a family twice or a
   series under two families.

   Counters and gauges stay live even when telemetry is off (they back
   always-on reporting such as the engine's [--stats] line);
   summaries are fed by spans, so only while it is on. *)

type counter = { c_name : string; c_help : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_bits : int64 Atomic.t }

type summary = {
  s_name : string;
  s_help : string;
  s_eps : float;
  mutable s_series : ((string * string) list * Sketch.t) list;
      (* sorted by label key; written under [lock] *)
}

type metric = Counter of counter | Gauge of gauge | Summary of summary

let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 32

let family_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Summary s -> s.s_name

let kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Summary _ -> "summary"

let series_names m =
  let name = family_name m in
  match m with
  | Counter _ | Gauge _ -> [ name ]
  | Summary _ -> [ name; name ^ "_sum"; name ^ "_count" ]

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

let lint_name name =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf "Mae_obs.Metrics: metric name %S does not match \
                       mae_[a-z0-9_]+" name)

(* [find] answers a re-registration of an existing family; [make]
   builds a new one, which claims every series name it exposes. *)
let register name make find =
  lint_name name;
  let result =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some m when String.equal (family_name m) name -> find m
        | Some m ->
            Error
              (Printf.sprintf "%s is a series of the %s %s" name (kind m)
                 (family_name m))
        | None -> (
            let m, v = make () in
            match List.find_opt (Hashtbl.mem table) (series_names m) with
            | Some s ->
                Error
                  (Printf.sprintf "%s %s would expose %s, already a %s series"
                     (kind m) name s
                     (kind (Hashtbl.find table s)))
            | None ->
                List.iter (fun s -> Hashtbl.add table s m) (series_names m);
                Ok v))
  in
  match result with
  | Ok v -> v
  | Error msg -> invalid_arg ("Mae_obs.Metrics: " ^ msg)

let already name m =
  Error (Printf.sprintf "%s already registered as a %s" name (kind m))

(* --- counters --- *)

let counter ?(help = "") name =
  register name
    (fun () ->
      let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
      (Counter c, c))
    (function Counter c -> Ok c | m -> already name m)

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
    (function Gauge g -> Ok g | m -> already name m)

let set g v = Atomic.set g.g_bits (Int64.bits_of_float v)
let gauge_value g = Int64.float_of_bits (Atomic.get g.g_bits)

(* --- summaries --- *)

(* Canonical "k=v,k=v" form: the JSON key suffix and the sort key that
   keeps a family's series in one order. *)
let label_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* Label names match [a-z_][a-z0-9_]*, but not "quantile", which the
   exposition adds itself; values carry no quote, backslash or
   newline, so they print unescaped. *)
let lint_labels labels =
  let ok_key k =
    String.length k > 0
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         k
    && not (k.[0] >= '0' && k.[0] <= '9')
    && not (String.equal k "quantile")
  in
  let ok_value v =
    String.for_all (fun c -> c <> '"' && c <> '\\' && c <> '\n') v
  in
  List.iter
    (fun (k, v) ->
      if not (ok_key k) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Metrics: invalid label name %S" k);
      if not (ok_value v) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Metrics: invalid label value %S" v))
    labels;
  if
    List.length (List.sort_uniq String.compare (List.map fst labels))
    <> List.length labels
  then invalid_arg "Mae_obs.Metrics: duplicate label name"

let summary ?(help = "") ?eps ?(labels = []) name =
  lint_labels labels;
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let key = label_key labels in
  let by_key (a, _) (b, _) = String.compare (label_key a) (label_key b) in
  register name
    (fun () ->
      let sk = Sketch.create ?eps () in
      let s =
        {
          s_name = name;
          s_help = help;
          s_eps = Sketch.eps sk;
          s_series = [ (labels, sk) ];
        }
      in
      (Summary s, sk))
    (function
      | Summary s -> (
          match eps with
          | Some e when e <> s.s_eps ->
              Error
                (Printf.sprintf "%s already registered with eps %g" name
                   s.s_eps)
          | _ -> (
              match
                List.find_opt
                  (fun (l, _) -> String.equal (label_key l) key)
                  s.s_series
              with
              | Some (_, sk) -> Ok sk
              | None ->
                  let sk = Sketch.create ~eps:s.s_eps () in
                  s.s_series <- List.sort by_key ((labels, sk) :: s.s_series);
                  Ok sk))
      | m -> already name m)

(* --- introspection --- *)

let find name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some m when String.equal (family_name m) name -> Some m
      | _ -> None)

let find_counter name =
  match find name with Some (Counter c) -> Some c | _ -> None

let find_gauge name =
  match find name with Some (Gauge g) -> Some g | _ -> None

let find_summaries name =
  match find name with
  | Some (Summary s) -> Mutex.protect lock (fun () -> s.s_series)
  | _ -> []

(* Every family, sorted by name, each summary with its series list as
   it stood under the lock. *)
let families () =
  let all =
    Mutex.protect lock (fun () ->
        Hashtbl.fold
          (fun key m acc ->
            if not (String.equal key (family_name m)) then acc
            else
              match m with
              | Summary s -> (m, s.s_series) :: acc
              | Counter _ | Gauge _ -> (m, []) :: acc)
          table [])
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare (family_name a) (family_name b))
    all

let reset_values () =
  List.iter
    (fun (m, series) ->
      match m with
      | Counter c -> reset_counter c
      | Gauge g -> set g 0.
      | Summary _ -> List.iter (fun (_, sk) -> Sketch.reset sk) series)
    (families ())

(* --- the exporter --- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* "{domain="0",quantile="0.5"}" -- a series' labels plus an optional
   quantile, or "" when there is neither. *)
let render_labels ?quantile labels =
  let pairs =
    labels
    @ match quantile with Some q -> [ ("quantile", float_repr q) ] | None -> []
  in
  match pairs with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) pairs)
      ^ "}"

let prometheus_summary buf name (labels, sk) =
  let s = Sketch.snapshot sk in
  List.iter
    (fun (q, v) ->
      Printf.bprintf buf "%s%s %s\n" name
        (render_labels ~quantile:q labels)
        (float_repr v))
    s.quantiles;
  Printf.bprintf buf "%s_sum%s %s\n" name (render_labels labels)
    (float_repr s.sum);
  Printf.bprintf buf "%s_count%s %d\n" name (render_labels labels) s.n;
  List.iter
    (fun (v, label, wall) ->
      (* OpenMetrics-flavoured exemplar, kept as a comment so plain
         Prometheus text parsers stay happy; the label is a request id
         resolvable at /tracez. *)
      Printf.bprintf buf "# EXEMPLAR %s {request_id=\"%s\"} %s %s\n" name
        label (float_repr v) (float_repr wall))
    s.exemplars

let to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (m, series) ->
      let name = family_name m in
      let help =
        match m with
        | Counter c -> c.c_help
        | Gauge g -> g.g_help
        | Summary s -> s.s_help
      in
      (* Every family gets HELP and TYPE lines once; an instrument
         registered without help falls back to its own name so scrapers
         always see a complete exposition. *)
      Printf.bprintf buf "# HELP %s %s\n" name
        (if String.equal help "" then name else help);
      Printf.bprintf buf "# TYPE %s %s\n" name (kind m);
      match m with
      | Counter c -> Printf.bprintf buf "%s %d\n" name (counter_value c)
      | Gauge g ->
          Printf.bprintf buf "%s %s\n" name (float_repr (gauge_value g))
      | Summary _ -> List.iter (prometheus_summary buf name) series)
    (families ());
  Buffer.contents buf

let json_summary name (labels, sk) =
  let s = Sketch.snapshot sk in
  let labels_field =
    if labels = [] then []
    else
      [
        ( "labels",
          Json.Object (List.map (fun (k, v) -> (k, Json.String v)) labels) );
      ]
  in
  let extremes =
    if s.n = 0 then []
    else [ ("min", Json.Number s.min_v); ("max", Json.Number s.max_v) ]
  in
  let exemplar (v, label, wall) =
    Json.Object
      [
        ("value", Json.Number v);
        ("label", Json.String label);
        ("ts", Json.Number wall);
      ]
  in
  let key = if labels = [] then name else name ^ "{" ^ label_key labels ^ "}" in
  ( key,
    Json.Object
      (labels_field
      @ [
          ("eps", Json.Number s.eps);
          ("count", Json.Number (float_of_int s.n));
          ("sum", Json.Number s.sum);
          ("tuples", Json.Number (float_of_int s.tuples));
        ]
      @ extremes
      @ [
          ( "quantiles",
            Json.Object
              (List.map (fun (q, v) -> (float_repr q, Json.Number v))
                 s.quantiles) );
          ("exemplars", Json.Array (List.map exemplar s.exemplars));
        ]) )

let to_json () =
  let counters = ref [] and gauges = ref [] and summaries = ref [] in
  List.iter
    (fun (m, series) ->
      match m with
      | Counter c ->
          counters :=
            Printf.sprintf "%s: %d" (Json.escape c.c_name) (counter_value c)
            :: !counters
      | Gauge g ->
          gauges :=
            Printf.sprintf "%s: %s" (Json.escape g.g_name)
              (float_repr (gauge_value g))
            :: !gauges
      | Summary s ->
          summaries :=
            List.rev_append (List.map (json_summary s.s_name) series)
              !summaries)
    (families ());
  let fields l = String.concat ", " (List.rev l) in
  Printf.sprintf
    "{\n  \"counters\": {%s},\n  \"gauges\": {%s},\n  \"sketches\": %s\n}\n"
    (fields !counters) (fields !gauges)
    (Json.encode (Json.Object (List.rev !summaries)))

let write_prometheus ~path = Atomic_file.write ~path (to_prometheus ())
let write_json ~path = Atomic_file.write ~path (to_json ())

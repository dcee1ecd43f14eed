(* The estimator registry: every methodology the pipeline can run,
   selectable by name, behind one signature.

   Registration happens at module-initialization time (the four core
   methodologies below; the baselines from Mae_baselines.Methods), so
   the registry is effectively immutable once main starts: reads from
   engine worker domains need no lock. *)

type error =
  | Unknown_method of string
  | Unsupported of { methodology : string; reason : string }
  | Invalid_input of { methodology : string; reason : string }
  | Estimator_failure of { methodology : string; reason : string }

let pp_error ppf = function
  | Unknown_method name ->
      Format.fprintf ppf "unknown methodology %s" name
  | Unsupported { methodology; reason } ->
      Format.fprintf ppf "%s: not applicable: %s" methodology reason
  | Invalid_input { methodology; reason } ->
      Format.fprintf ppf "%s: invalid input: %s" methodology reason
  | Estimator_failure { methodology; reason } ->
      Format.fprintf ppf "%s: estimator failed: %s" methodology reason

let error_to_string e = Format.asprintf "%a" pp_error e

type outcome =
  | Stdcell of { auto : Estimate.stdcell; sweep : Estimate.stdcell list }
  | Fullcustom of Estimate.fullcustom
  | Gatearray of Gatearray.estimate
  | Scalar of scalar

and scalar = {
  area : Mae_geom.Lambda.area;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
}

type dims = {
  area : Mae_geom.Lambda.area;
  width : Mae_geom.Lambda.t;
  height : Mae_geom.Lambda.t;
  aspect : Mae_geom.Aspect.t;
}

let dims = function
  | Stdcell { auto; _ } ->
      {
        area = auto.Estimate.area;
        width = auto.Estimate.width;
        height = auto.Estimate.height;
        aspect = auto.Estimate.aspect;
      }
  | Fullcustom f ->
      {
        area = f.Estimate.area;
        width = f.Estimate.width;
        height = f.Estimate.height;
        aspect = f.Estimate.aspect;
      }
  | Gatearray g ->
      {
        area = g.Gatearray.area;
        width = g.Gatearray.width;
        height = g.Gatearray.height;
        aspect = g.Gatearray.aspect;
      }
  | Scalar s ->
      {
        area = s.area;
        width = s.width;
        height = s.height;
        aspect = Mae_geom.Aspect.make ~width:s.width ~height:s.height;
      }

let kind = function
  | Stdcell _ -> "stdcell"
  | Fullcustom _ -> "fullcustom"
  | Gatearray _ -> "gatearray"
  | Scalar _ -> "scalar"

type ctx = {
  config : Config.t option;
  process : Mae_tech.Process.t;
  stats : Mae_netlist.Stats.t;
  fc_circuit : Mae_netlist.Circuit.t;
  fc_stats : Mae_netlist.Stats.t;
  rows_override : int option;
}

(* A circuit is transistor-level when every device kind resolves to a
   transistor in the process. *)
let all_transistors circuit process =
  Array.for_all
    (function
      | Some kind -> Mae_tech.Device_kind.is_transistor kind | None -> false)
    (Mae_netlist.Stats.device_kinds circuit process)

(* The library that flattens a gate-level circuit, [None] when the
   circuit is already transistor-level or its technology has none. *)
let flattening_library (circuit : Mae_netlist.Circuit.t) process =
  if all_transistors circuit process then None
  else Mae_celllib.Cmos_lib.for_technology circuit.technology

let expand_for_fullcustom circuit process =
  match flattening_library circuit process with
  | None -> None
  | Some library -> begin
      match Mae_celllib.Expand.circuit library circuit with
      | Ok expanded -> Some expanded
      | Error (Mae_celllib.Expand.Unknown_cell _) -> None
    end

let fullcustom_stats ?stats circuit process =
  let stats () = Mae_netlist.Stats.ensure ?stats circuit process in
  match flattening_library circuit process with
  | None -> stats ()
  | Some library -> begin
      match Mae_celllib.Expand.stats library circuit process with
      | Ok fc_stats -> fc_stats
      | Error (Mae_celllib.Expand.Unknown_cell _) -> stats ()
    end

(* One Mae_obs span per Figure-1 stage, per module, which also times
   the stage into its latency summary (mae_driver_<stage>_seconds_summary)
   so /metrics can answer "p99 of validate" without bucket edges.  The
   module attribute on every stage span lets a Chrome-trace or flame
   view slice by stage across modules or by module across stages; with
   telemetry off each [stage] call is a single atomic read. *)
type stage = {
  span : string;
  metric : string;
  help : string;
  summary : Mae_obs.Sketch.t option Atomic.t;
      (* registered on the stage's first timed run, so a process with
         telemetry off registers none *)
}

let new_stage span =
  {
    span;
    metric =
      "mae_" ^ String.map (fun c -> if c = '.' then '_' else c) span
      ^ "_seconds_summary";
    help = Printf.sprintf "Latency quantiles of the %s stage (GK sketch)" span;
    summary = Atomic.make None;
  }

let stage st ~module_name f =
  if not (Mae_obs.Control.enabled ()) then f ()
  else begin
    let summary =
      match Atomic.get st.summary with
      | Some sk -> sk
      | None ->
          (* a racing domain gets the same sketch: registration is
             idempotent *)
          let sk = Mae_obs.Metrics.summary st.metric ~help:st.help in
          Atomic.set st.summary (Some sk);
          sk
    in
    Mae_obs.Span.with_ ~name:st.span ~summary
      ~attrs:[ ("module", module_name) ]
      f
  end

let expand_stage = new_stage "driver.expand"
let stats_stage = new_stage "driver.stats"

let make_ctx ?rows_override ~process (circuit : Mae_netlist.Circuit.t) =
  let m = circuit.name in
  match
    (* each circuit's statistics are computed once and shared across
       the whole method set; the expansion's come from the cell
       templates, and the expansion itself is never built *)
    let stats =
      stage stats_stage ~module_name:m (fun () ->
          Mae_netlist.Stats.compute circuit process)
    in
    let fc_stats =
      stage expand_stage ~module_name:m (fun () ->
          fullcustom_stats ~stats circuit process)
    in
    { config = None; process; stats; fc_circuit = circuit; fc_stats; rows_override }
  with
  | ctx -> Ok ctx
  | exception Mae_netlist.Stats.Unknown_kind k ->
      Error
        (Invalid_input
           { methodology = "ctx"; reason = "unknown device kind " ^ k })

type t = {
  name : string;
  doc : string;
  estimate : ctx -> Mae_netlist.Circuit.t -> (outcome, error) result;
  span_name : string;  (* "method.<name>" *)
  runs : Mae_obs.Metrics.counter;
  errors : Mae_obs.Metrics.counter;
  latency : Mae_obs.Sketch.t;
}

let name t = t.name
let doc t = t.doc

let registry : t list ref = ref []

let find n = List.find_opt (fun t -> String.equal t.name n) !registry
let all () = !registry
let names () = List.map (fun t -> t.name) !registry

(* The estimate store keys results partly by "which estimator code
   produced them".  The registry version folds an explicit epoch (bumped
   whenever estimator behaviour changes without a rename -- tests use it
   to force invalidation) with the registered names, so registering,
   removing or renaming a methodology changes every store key. *)
let epoch = Atomic.make 0
let registry_epoch () = Atomic.get epoch
let bump_registry_epoch () = Atomic.incr epoch

let registry_version () =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "mae-registry %d %s" (Atomic.get epoch)
          (String.concat "," (names ()))))

let valid_name n =
  String.length n > 0
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-')
       n

let metric_name n =
  String.map (fun c -> if c = '-' then '_' else c) n

let register ~name ~doc estimate =
  if not (valid_name name) then
    invalid_arg ("Methodology.register: bad name " ^ name) (* invariant *);
  if Option.is_some (find name) then
    invalid_arg ("Methodology.register: duplicate " ^ name) (* invariant *);
  let m = metric_name name in
  let t =
    {
      name;
      doc;
      estimate;
      span_name = "method." ^ name;
      runs =
        Mae_obs.Metrics.counter
          (Printf.sprintf "mae_method_%s_runs_total" m)
          ~help:(Printf.sprintf "Estimation runs of the %s methodology" name);
      errors =
        Mae_obs.Metrics.counter
          (Printf.sprintf "mae_method_%s_errors_total" m)
          ~help:
            (Printf.sprintf "Runs of the %s methodology that returned an error"
               name);
      latency =
        Mae_obs.Metrics.summary
          (Printf.sprintf "mae_method_%s_seconds_summary" m)
          ~help:
            (Printf.sprintf "Per-module latency quantiles of the %s \
                             methodology (GK sketch)" name);
    }
  in
  registry := !registry @ [ t ];
  t

let default_names = [ "stdcell"; "fullcustom-exact"; "fullcustom-average" ]

let resolve requested =
  let requested =
    List.concat_map
      (function
        | "default" -> default_names
        | "all" -> names ()
        | n -> [ n ])
      requested
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> begin
        match find n with
        | Some t -> go (t :: acc) rest
        | None -> Error n
      end
  in
  go [] requested

let selection_of_string s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty method set"
  else begin
    match resolve parts with
    | Ok ts -> Ok (List.map (fun t -> t.name) ts)
    | Error n ->
        Error
          (Printf.sprintf "unknown methodology %s (registered: %s)" n
             (String.concat ", " (names ())))
  end

(* The raise/value boundary: estimators may raise on violated
   preconditions (the kernels assert their domains); a methodology run
   converts anything escaping into a typed error so no pipeline path
   propagates an exception. *)
let run ctx t (circuit : Mae_netlist.Circuit.t) =
  Mae_obs.Span.with_ ~name:t.span_name ~summary:t.latency
    ~attrs:[ ("module", circuit.name) ]
  @@ fun () ->
  Mae_obs.Metrics.incr t.runs;
  let result =
    match t.estimate ctx circuit with
    | (Ok _ | Error _) as r -> r
    | exception Mae_netlist.Stats.Unknown_kind k ->
        Error
          (Invalid_input
             { methodology = t.name; reason = "unknown device kind " ^ k })
    | exception Invalid_argument reason ->
        Error (Invalid_input { methodology = t.name; reason })
    | exception Failure reason ->
        Error (Estimator_failure { methodology = t.name; reason })
    | exception Not_found ->
        Error
          (Unsupported
             {
               methodology = t.name;
               reason = "a required process/library entry is missing";
             })
  in
  (match result with Error _ -> Mae_obs.Metrics.incr t.errors | Ok _ -> ());
  result

(* --- the four core methodologies --- *)

let _stdcell =
  register ~name:"stdcell"
    ~doc:
      "Standard-cell estimator (section 4.1): probabilistic routing-track \
       and feed-through model at an automatically selected row count, plus \
       the Table 2 row sweep"
    (fun ctx circuit ->
      match ctx.rows_override with
      | Some rows ->
          Ok
            (Stdcell
               {
                 auto =
                   Stdcell.estimate ?config:ctx.config ~stats:ctx.stats ~rows
                     circuit ctx.process;
                 sweep = [];
               })
      | None ->
          let auto =
            Stdcell.estimate_auto ?config:ctx.config ~stats:ctx.stats circuit
              ctx.process
          in
          let sweep =
            Stdcell.sweep ?config:ctx.config ~stats:ctx.stats
              ~rows:(Row_select.candidates ~stats:ctx.stats circuit ctx.process)
              circuit ctx.process
          in
          Ok (Stdcell { auto; sweep }))

let fullcustom_method ~mode ctx (_ : Mae_netlist.Circuit.t) =
  Ok
    (Fullcustom
       (Fullcustom.estimate ?config:ctx.config ~stats:ctx.fc_stats ~mode
          ctx.fc_circuit ctx.process))

let _fullcustom_exact =
  register ~name:"fullcustom-exact"
    ~doc:
      "Full-custom estimator (section 4.2, equation 13) summing exact \
       per-device footprints; gate-level schematics are flattened through \
       the technology's cell library first"
    (fullcustom_method ~mode:Config.Exact_areas)

let _fullcustom_average =
  register ~name:"fullcustom-average"
    ~doc:
      "Full-custom estimator (section 4.2) with the N * W_avg * h_avg \
       average-footprint device area, the paper's second Table 1 variant"
    (fullcustom_method ~mode:Config.Average_areas)

let _gatearray =
  register ~name:"gatearray"
    ~doc:
      "Gate-array extension: sites from the logic's transistor demand, a \
       square-ish prediffused master grown until the paper's track model \
       says it routes"
    (fun ctx circuit ->
      match
        Gatearray.estimate_routable ~stats:ctx.stats circuit ctx.process
      with
      | Ok e -> Ok (Gatearray e)
      | Error reason -> Error (Unsupported { methodology = "gatearray"; reason }))

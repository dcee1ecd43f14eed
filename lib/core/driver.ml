type method_result = {
  methodology : Methodology.t;
  outcome : (Methodology.outcome, Methodology.error) result;
}

type answer = {
  name : string;
  technology : string;
  results : method_result list;
}

type module_report = {
  circuit : Mae_netlist.Circuit.t;
  process : Mae_tech.Process.t;
  issues : Mae_netlist.Validate.issue list;
  expanded : Mae_netlist.Circuit.t option;
  results : method_result list;
}

type error =
  | Parse_error of Mae_hdl.Parser.error
  | Elaborate_error of Mae_hdl.Elaborate.error
  | Unknown_process of { module_name : string; technology : string }
  | Unknown_method of { module_name : string; methodology : string }
  | Validation_failed of {
      module_name : string;
      issues : Mae_netlist.Validate.issue list;
    }

let pp_error ppf = function
  | Parse_error e -> Format.fprintf ppf "parse error: %a" Mae_hdl.Parser.pp_error e
  | Elaborate_error e ->
      Format.fprintf ppf "elaboration error: %a" Mae_hdl.Elaborate.pp_error e
  | Unknown_process { module_name; technology } ->
      Format.fprintf ppf "module %s: unknown process %s" module_name technology
  | Unknown_method { module_name; methodology } ->
      Format.fprintf ppf "module %s: unknown methodology %s (registered: %s)"
        module_name methodology
        (String.concat ", " (Methodology.names ()))
  | Validation_failed { module_name; issues } ->
      Format.fprintf ppf "@[<v>module %s failed validation:@ %a@]" module_name
        (Format.pp_print_list Mae_netlist.Validate.pp_issue)
        issues

let answer r =
  {
    name = r.circuit.Mae_netlist.Circuit.name;
    technology = r.circuit.Mae_netlist.Circuit.technology;
    results = r.results;
  }

(* --- per-method accessors ------------------------------------------- *)

let find_result report name =
  List.find_map
    (fun r ->
      if String.equal (Methodology.name r.methodology) name then
        Some r.outcome
      else None)
    report.results

let ok_result report name =
  match find_result report name with
  | Some (Ok o) -> Some o
  | Some (Error _) | None -> None

let stdcell report =
  match ok_result report "stdcell" with
  | Some (Methodology.Stdcell { auto; _ }) -> Some auto
  | _ -> None

let stdcell_sweep report =
  match ok_result report "stdcell" with
  | Some (Methodology.Stdcell { sweep; _ }) -> sweep
  | _ -> []

let fullcustom_exact report =
  match ok_result report "fullcustom-exact" with
  | Some (Methodology.Fullcustom f) -> Some f
  | _ -> None

let fullcustom_average report =
  match ok_result report "fullcustom-average" with
  | Some (Methodology.Fullcustom f) -> Some f
  | _ -> None

let gatearray report =
  match ok_result report "gatearray" with
  | Some (Methodology.Gatearray g) -> Some g
  | _ -> None

let method_failures report =
  List.filter_map
    (fun r ->
      match r.outcome with
      | Error e -> Some (Methodology.name r.methodology, e)
      | Ok _ -> None)
    report.results

let module_stage = Methodology.new_stage "driver.module"
let validate_stage = Methodology.new_stage "driver.validate"

let run_circuit ?(methods = [ "default" ]) ~registry
    (circuit : Mae_netlist.Circuit.t) =
  let m = circuit.name in
  Methodology.stage module_stage ~module_name:m @@ fun () ->
  match Methodology.resolve methods with
  | Error name ->
      Error (Unknown_method { module_name = circuit.name; methodology = name })
  | Ok selected -> begin
      match Mae_tech.Registry.find registry circuit.technology with
      | None ->
          Error
            (Unknown_process
               { module_name = circuit.name; technology = circuit.technology })
      | Some process -> begin
          let issues =
            Methodology.stage validate_stage ~module_name:m (fun () ->
                Mae_netlist.Validate.check circuit process)
          in
          let errors = List.filter Mae_netlist.Validate.is_error issues in
          match errors with
          | _ :: _ ->
              Error
                (Validation_failed { module_name = circuit.name; issues = errors })
          | [] ->
              let results =
                match Methodology.make_ctx ~process circuit with
                | Ok ctx ->
                    List.map
                      (fun t ->
                        { methodology = t; outcome = Methodology.run ctx t circuit })
                      selected
                | Error e ->
                    (* validation already refused unknown kinds; should the
                       context still fail, every slot reports it, typed *)
                    List.map (fun t -> { methodology = t; outcome = Error e }) selected
              in
              let report = { circuit; process; issues; expanded = None; results } in
              (* one structured record per module (debug level): which row
                 count the estimator selected and what it concluded -- the
                 per-module detail behind a serve access-log line. *)
              if Mae_obs.Log.enabled Mae_obs.Log.Debug then
                Mae_obs.Log.debug ~event:"driver.module"
                  ([
                     ("module", Mae_obs.Log.Str circuit.name);
                     ("technology", Mae_obs.Log.Str circuit.technology);
                   ]
                  @ (match stdcell report with
                    | Some sc ->
                        [
                          ("rows_selected", Mae_obs.Log.Int sc.Estimate.rows);
                          ("stdcell_area", Mae_obs.Log.Float sc.Estimate.area);
                        ]
                    | None -> [])
                  @ (match fullcustom_exact report with
                    | Some fc ->
                        [ ("fullcustom_area", Mae_obs.Log.Float fc.Estimate.area) ]
                    | None -> [])
                  @ [
                      ("issues", Mae_obs.Log.Int (List.length issues));
                      ( "method_errors",
                        Mae_obs.Log.Int (List.length (method_failures report)) );
                    ]);
              Ok report
        end
    end

let run_circuits ?methods ~registry circuits =
  List.map (run_circuit ?methods ~registry) circuits

let run_design ?methods ~registry design =
  match Mae_hdl.Elaborate.design_to_circuits design with
  | Error e -> Error (Elaborate_error e)
  | Ok circuits ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> begin
            match run_circuit ?methods ~registry c with
            | Ok report -> go (report :: acc) rest
            | Error e -> Error e
          end
      in
      go [] circuits

let design_circuits design =
  match
    Mae_obs.Span.with_ ~name:"driver.elaborate" (fun () ->
        Mae_hdl.Elaborate.design_to_circuits design)
  with
  | Error e -> Error (Elaborate_error e)
  | Ok circuits -> Ok circuits

let parse_string text =
  Mae_obs.Span.with_ ~name:"driver.parse" (fun () ->
      Mae_hdl.Parser.parse_string text)

let parse_file path =
  Mae_obs.Span.with_ ~name:"driver.parse"
    ~attrs:[ ("file", path) ]
    (fun () -> Mae_hdl.Parser.parse_file path)

let string_circuits text =
  match parse_string text with
  | Error e -> Error (Parse_error e)
  | Ok design -> design_circuits design

let file_circuits path =
  match parse_file path with
  | Error e -> Error (Parse_error e)
  | Ok design -> design_circuits design

let run_string ?methods ~registry text =
  match parse_string text with
  | Error e -> Error (Parse_error e)
  | Ok design -> run_design ?methods ~registry design

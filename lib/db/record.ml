type t = {
  module_name : string;
  technology : string;
  devices : int;
  nets : int;
  ports : int;
  sc_rows : int;
  sc_tracks : int;
  sc_feed_throughs : int;
  sc_width : float;
  sc_height : float;
  sc_area : float;
  sc_aspect : float;
  fc_exact_area : float;
  fc_exact_aspect : float;
  fc_average_area : float;
  fc_average_aspect : float;
  shapes : (float * float) list;
}

type of_report_error =
  | Missing_methods of { module_name : string }
  | Non_finite of { module_name : string; field : string; value : float }

let of_report_error_to_string = function
  | Missing_methods { module_name } ->
      module_name
      ^ ": the database row needs successful stdcell, fullcustom-exact and \
         fullcustom-average results (run with the default method set)"
  | Non_finite { module_name; field; value } ->
      Printf.sprintf
        "%s: estimate field %s is %h; a non-finite value must not reach the \
         floor-planner feed"
        module_name field value

(* A record is the floor planner's input row, and the floor planner
   needs the standard-cell shape function plus both full-custom
   variants; a report estimated with a narrower method set cannot
   produce one.  Every float field is checked finite here -- %.17g in
   the Store writer happily prints nan/inf, and a poisoned row would
   otherwise round-trip silently into every packing that reads it. *)
let of_results ~module_name ~technology ~devices ~nets ~ports results =
  let ok name =
    match
      List.find_opt
        (fun (mr : Mae.Driver.method_result) ->
          String.equal (Mae.Methodology.name mr.methodology) name)
        results
    with
    | Some { outcome = Ok o; _ } -> Some o
    | Some { outcome = Error _; _ } | None -> None
  in
  match (ok "stdcell", ok "fullcustom-exact", ok "fullcustom-average") with
  | ( Some (Mae.Methodology.Stdcell { auto = sc; sweep }),
      Some (Mae.Methodology.Fullcustom fce),
      Some (Mae.Methodology.Fullcustom fca) ) -> begin
      let sweep_shapes =
        List.map (fun (e : Mae.Estimate.stdcell) -> (e.width, e.height)) sweep
      in
      let fc_shapes =
        [
          (fce.Mae.Estimate.width, fce.height);
          (fca.Mae.Estimate.width, fca.height);
        ]
      in
      let record =
        {
          module_name;
          technology;
          devices;
          nets;
          ports;
          sc_rows = sc.Mae.Estimate.rows;
          sc_tracks = sc.tracks;
          sc_feed_throughs = sc.feed_throughs;
          sc_width = sc.width;
          sc_height = sc.height;
          sc_area = sc.area;
          sc_aspect = Mae_geom.Aspect.ratio sc.aspect;
          fc_exact_area = fce.area;
          fc_exact_aspect = Mae_geom.Aspect.ratio fce.aspect;
          fc_average_area = fca.area;
          fc_average_aspect = Mae_geom.Aspect.ratio fca.aspect;
          shapes = sweep_shapes @ fc_shapes;
        }
      in
      let fields =
        [
          ("sc_width", record.sc_width);
          ("sc_height", record.sc_height);
          ("sc_area", record.sc_area);
          ("sc_aspect", record.sc_aspect);
          ("fc_exact_area", record.fc_exact_area);
          ("fc_exact_aspect", record.fc_exact_aspect);
          ("fc_average_area", record.fc_average_area);
          ("fc_average_aspect", record.fc_average_aspect);
        ]
        @ List.concat
            (List.mapi
               (fun i (w, h) ->
                 [
                   (Printf.sprintf "shapes[%d].width" i, w);
                   (Printf.sprintf "shapes[%d].height" i, h);
                 ])
               record.shapes)
      in
      match
        List.find_opt (fun (_, v) -> not (Float.is_finite v)) fields
      with
      | Some (field, value) ->
          Error (Non_finite { module_name; field; value })
      | None -> Ok record
    end
  | _ -> Error (Missing_methods { module_name })

let of_report (r : Mae.Driver.module_report) =
  let c = r.circuit in
  of_results ~module_name:c.name ~technology:c.technology
    ~devices:(Mae_netlist.Circuit.device_count c)
    ~nets:(Mae_netlist.Circuit.net_count c)
    ~ports:(Mae_netlist.Circuit.port_count c)
    r.results

(* Float fields compare with [Float.equal] (total order: nan equals
   nan, unlike [=.]), so a record always equals itself even if a
   non-finite value is forced in by hand -- the reflexivity the store's
   replace-on-add semantics rely on. *)
let equal a b =
  String.equal a.module_name b.module_name
  && String.equal a.technology b.technology
  && a.devices = b.devices && a.nets = b.nets && a.ports = b.ports
  && a.sc_rows = b.sc_rows && a.sc_tracks = b.sc_tracks
  && a.sc_feed_throughs = b.sc_feed_throughs
  && Float.equal a.sc_width b.sc_width
  && Float.equal a.sc_height b.sc_height
  && Float.equal a.sc_area b.sc_area
  && Float.equal a.sc_aspect b.sc_aspect
  && Float.equal a.fc_exact_area b.fc_exact_area
  && Float.equal a.fc_exact_aspect b.fc_exact_aspect
  && Float.equal a.fc_average_area b.fc_average_area
  && Float.equal a.fc_average_aspect b.fc_average_aspect
  && List.length a.shapes = List.length b.shapes
  && List.for_all2
       (fun (wa, ha) (wb, hb) -> Float.equal wa wb && Float.equal ha hb)
       a.shapes b.shapes

let pp ppf t =
  Format.fprintf ppf
    "%s (%s): N=%d H=%d P=%d; SC %.0fL^2 @ %.2f; FC %.0f/%.0f L^2"
    t.module_name t.technology t.devices t.nets t.ports t.sc_area t.sc_aspect
    t.fc_exact_area t.fc_average_area

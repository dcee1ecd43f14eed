type t = (string, Record.t) Hashtbl.t

let create () = Hashtbl.create 16

let add t (r : Record.t) = Hashtbl.replace t r.module_name r

let find t name = Hashtbl.find_opt t name

let names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t [] |> List.sort String.compare

let records t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t []
  |> List.sort (fun (a : Record.t) (b : Record.t) ->
         String.compare a.module_name b.module_name)

let to_string t =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (r : Record.t) ->
      (* names that are not plain tokens (spaces, control characters,
         quotes) are OCaml-quoted; the parser reads both forms, so files
         written before quoting existed still load *)
      addf "record %s\n" (Escape.quote r.module_name);
      addf "technology %s\n" (Escape.quote r.technology);
      addf "counts %d %d %d\n" r.devices r.nets r.ports;
      addf "stdcell %d %d %d %.17g %.17g %.17g %.17g\n" r.sc_rows r.sc_tracks
        r.sc_feed_throughs r.sc_width r.sc_height r.sc_area r.sc_aspect;
      addf "fullcustom %.17g %.17g %.17g %.17g\n" r.fc_exact_area r.fc_exact_aspect
        r.fc_average_area r.fc_average_aspect;
      List.iter (fun (w, h) -> addf "shape %.17g %.17g\n" w h) r.shapes;
      addf "end\n")
    (records t);
  Buffer.contents buf

(* A stored estimate is the floor planner's input; a non-finite area or
   aspect would poison every packing that reads it, so the parser
   rejects nan/infinity where the old float_of_string let them
   round-trip silently. *)
let finite_of_string s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Some f
  | Some _ | None -> None

let of_string text =
  let t = create () in
  let lines = String.split_on_char '\n' text in
  let error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let partial = ref None in
  let rec go lineno = function
    | [] -> begin
        match !partial with
        | Some _ -> Error "unterminated record"
        | None -> Ok t
      end
    | line :: rest -> begin
        match Escape.tokens (String.trim line) with
        | Error e -> error lineno e
        | Ok toks ->
        match (toks, !partial) with
        | [], _ -> go (lineno + 1) rest
        | [ "record"; name ], None ->
            partial :=
              Some
                {
                  Record.module_name = name;
                  technology = "";
                  devices = 0;
                  nets = 0;
                  ports = 0;
                  sc_rows = 0;
                  sc_tracks = 0;
                  sc_feed_throughs = 0;
                  sc_width = 0.;
                  sc_height = 0.;
                  sc_area = 0.;
                  sc_aspect = 1.;
                  fc_exact_area = 0.;
                  fc_exact_aspect = 1.;
                  fc_average_area = 0.;
                  fc_average_aspect = 1.;
                  shapes = [];
                };
            go (lineno + 1) rest
        | [ "record"; _ ], Some _ -> error lineno "nested record"
        | _ :: _, None -> error lineno "directive outside record"
        | [ "end" ], Some r ->
            add t { r with shapes = List.rev r.shapes };
            partial := None;
            go (lineno + 1) rest
        | [ "technology"; tech ], Some r ->
            partial := Some { r with technology = tech };
            go (lineno + 1) rest
        | [ "counts"; d; n; p ], Some r -> begin
            match
              (int_of_string_opt d, int_of_string_opt n, int_of_string_opt p)
            with
            | Some devices, Some nets, Some ports ->
                partial := Some { r with devices; nets; ports };
                go (lineno + 1) rest
            | _, _, _ -> error lineno "malformed counts"
          end
        | [ "stdcell"; rows; tracks; feeds; w; h; a; asp ], Some r -> begin
            match
              ( int_of_string_opt rows,
                int_of_string_opt tracks,
                int_of_string_opt feeds,
                finite_of_string w,
                finite_of_string h,
                finite_of_string a,
                finite_of_string asp )
            with
            | ( Some sc_rows,
                Some sc_tracks,
                Some sc_feed_throughs,
                Some sc_width,
                Some sc_height,
                Some sc_area,
                Some sc_aspect ) ->
                partial :=
                  Some
                    {
                      r with
                      sc_rows;
                      sc_tracks;
                      sc_feed_throughs;
                      sc_width;
                      sc_height;
                      sc_area;
                      sc_aspect;
                    };
                go (lineno + 1) rest
            | _, _, _, _, _, _, _ -> error lineno "malformed or non-finite stdcell"
          end
        | [ "fullcustom"; ea; easp; aa; aasp ], Some r -> begin
            match
              ( finite_of_string ea,
                finite_of_string easp,
                finite_of_string aa,
                finite_of_string aasp )
            with
            | Some fc_exact_area, Some fc_exact_aspect, Some fc_average_area,
              Some fc_average_aspect ->
                partial :=
                  Some
                    {
                      r with
                      fc_exact_area;
                      fc_exact_aspect;
                      fc_average_area;
                      fc_average_aspect;
                    };
                go (lineno + 1) rest
            | _, _, _, _ -> error lineno "malformed or non-finite fullcustom"
          end
        | [ "shape"; w; h ], Some r -> begin
            match (finite_of_string w, finite_of_string h) with
            | Some w, Some h ->
                partial := Some { r with shapes = (w, h) :: r.shapes };
                go (lineno + 1) rest
            | _, _ -> error lineno "malformed or non-finite shape"
          end
        | _ :: _, Some _ -> error lineno ("unrecognized line: " ^ String.trim line)
      end
  in
  go 1 lines

let save t ~path = Mae_obs.Atomic_file.write ~path (to_string t)

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

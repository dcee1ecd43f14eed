type t = { table : (string, Process.t) Hashtbl.t; mutable version : int }

let add t (p : Process.t) =
  Hashtbl.replace t.table p.name p;
  t.version <- t.version + 1

let create ?(builtins = true) () =
  let t = { table = Hashtbl.create 8; version = 0 } in
  if builtins then List.iter (add t) Builtin.all;
  t

let version t = t.version

let load_result t = function
  | Error e -> Error e
  | Ok processes ->
      List.iter (add t) processes;
      Ok (List.length processes)

let load_string t text = load_result t (Tech_parser.parse_string text)

let load_file t path = load_result t (Tech_parser.parse_file path)

let find t name = Hashtbl.find_opt t.table name

let find_exn t name =
  match find t name with Some p -> p | None -> raise Not_found

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort String.compare

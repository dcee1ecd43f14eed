type error =
  | Duplicate_name of { module_name : string; what : string; name : string }
  | Port_without_net of { module_name : string; port : string }
  | No_technology of { module_name : string }
  | Module_not_found of string
  | Recursive_module of string
  | Port_arity of {
      module_name : string;
      instance : string;
      expected : int;
      got : int;
    }

let pp_error ppf = function
  | Duplicate_name { module_name; what; name } ->
      Format.fprintf ppf "module %s: duplicate %s %s" module_name what name
  | Port_without_net { module_name; port } ->
      Format.fprintf ppf "module %s: port %s has no net" module_name port
  | No_technology { module_name } ->
      Format.fprintf ppf "module %s: no technology given" module_name
  | Module_not_found name -> Format.fprintf ppf "module %s not found" name
  | Recursive_module name ->
      Format.fprintf ppf "module %s instantiates itself (recursion)" name
  | Port_arity { module_name; instance; expected; got } ->
      Format.fprintf ppf
        "module %s: instance %s has %d pins but the child declares %d ports"
        module_name instance got expected

let module_to_circuit ?default_technology (m : Ast.module_decl) =
  let technology =
    match Ast.technology m with Some t -> Some t | None -> default_technology
  in
  match technology with
  | None -> Error (No_technology { module_name = m.name })
  | Some technology -> begin
      let builder = Mae_netlist.Builder.create ~name:m.name ~technology in
      let elaborate_item = function
        | Ast.Technology_decl _ -> Ok ()
        | Ast.Net_decl name ->
            ignore (Mae_netlist.Builder.net builder name);
            Ok ()
        | Ast.Port_decl { name; direction } -> begin
            (* The port's net shares the port's name. *)
            try
              Mae_netlist.Builder.add_port builder ~name ~direction ~net:name;
              Ok ()
            with Invalid_argument _ ->
              Error (Duplicate_name { module_name = m.name; what = "port"; name })
          end
        | Ast.Device_decl { name; kind; pins } -> begin
            try
              ignore (Mae_netlist.Builder.add_device builder ~name ~kind ~nets:pins);
              Ok ()
            with Invalid_argument _ ->
              Error (Duplicate_name { module_name = m.name; what = "device"; name })
          end
      in
      let rec go = function
        | [] -> Ok (Mae_netlist.Builder.build builder)
        | item :: rest -> begin
            match elaborate_item item with
            | Ok () -> go rest
            | Error e -> Error e
          end
      in
      go m.items
    end

let design_to_circuits ?default_technology design =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | m :: rest -> begin
        match module_to_circuit ?default_technology m with
        | Ok c -> go (c :: acc) rest
        | Error e -> Error e
      end
  in
  go [] design

let find_module ?default_technology design ~name =
  match
    List.find_opt (fun (m : Ast.module_decl) -> String.equal m.name name) design
  with
  | Some m -> module_to_circuit ?default_technology m
  | None -> Error (Module_not_found name)


exception Flatten_error of error

(* A module of the design with its port names, in declaration order, and
   the first position of each: an instance's pins bind by position. *)
type indexed = {
  decl : Ast.module_decl;
  ports : string array;
  port_position : int Mae_netlist.Names.t;
}

let index_module (m : Ast.module_decl) =
  let ports =
    Array.of_list
      (List.filter_map
         (function
           | Ast.Port_decl { name; _ } -> Some name
           | Ast.Technology_decl _ | Ast.Net_decl _ | Ast.Device_decl _ -> None)
         m.items)
  in
  let port_position = Mae_netlist.Names.create (Array.length ports) in
  Array.iteri
    (fun i p ->
      if not (Mae_netlist.Names.mem port_position p) then
        Mae_netlist.Names.add port_position p i)
    ports;
  { decl = m; ports; port_position }

(* Hierarchical elaboration: walk the instance tree, renaming each child's
   nets and devices under its instance path.  Modules are indexed by name
   once (the first definition of a name wins) and [active] holds the
   modules on the current instance path, so each instance costs a
   constant number of table lookups plus its own items. *)
let flatten ?default_technology design ~top =
  let modules = Mae_netlist.Names.create 64 in
  List.iter
    (fun (m : Ast.module_decl) ->
      if not (Mae_netlist.Names.mem modules m.name) then
        Mae_netlist.Names.add modules m.name (index_module m))
    design;
  let module_of name = Mae_netlist.Names.find_opt modules name in
  match module_of top with
  | None -> Error (Module_not_found top)
  | Some top_module -> begin
      let technology =
        match Ast.technology top_module.decl with
        | Some t -> Some t
        | None -> default_technology
      in
      match technology with
      | None -> Error (No_technology { module_name = top })
      | Some technology -> begin
          let builder = Mae_netlist.Builder.create ~name:top ~technology in
          let fail e = raise (Flatten_error e) in
          let active = Mae_netlist.Names.create 16 in
          (* [bindings.(i)] is the parent's net on port [i] of [m]; the
             top has none *)
          let rec instantiate ~prefix ~bindings (m : indexed) =
            let name = m.decl.name in
            if not (Mae_netlist.Names.fresh active name) then
              fail (Recursive_module name);
            let resolve net =
              match Mae_netlist.Names.find_opt m.port_position net with
              | Some i when Array.length bindings > 0 -> bindings.(i)
              | Some _ | None -> prefix ^ net
            in
            List.iter
              (fun item ->
                match item with
                | Ast.Technology_decl _ -> ()
                | Ast.Net_decl n -> ignore (Mae_netlist.Builder.net builder (resolve n))
                | Ast.Port_decl { name = port; direction } ->
                    if String.equal prefix "" then
                      (* only the top module's ports survive flattening *)
                      (try
                         Mae_netlist.Builder.add_port builder ~name:port ~direction
                           ~net:(resolve port)
                       with Invalid_argument _ ->
                         fail
                           (Duplicate_name
                              { module_name = name; what = "port"; name = port }))
                    else ignore (Mae_netlist.Builder.net builder (resolve port))
                | Ast.Device_decl { name = instance; kind; pins } -> begin
                    match module_of kind with
                    | Some child ->
                        let expected = Array.length child.ports
                        and got = List.length pins in
                        if expected <> got then
                          fail
                            (Port_arity
                               {
                                 module_name = name;
                                 instance = prefix ^ instance;
                                 expected;
                                 got;
                               });
                        instantiate
                          ~prefix:(prefix ^ instance ^ ".")
                          ~bindings:(Array.of_list (List.map resolve pins))
                          child
                    | None -> begin
                        try
                          ignore
                            (Mae_netlist.Builder.add_device builder
                               ~name:(prefix ^ instance) ~kind
                               ~nets:(List.map resolve pins))
                        with Invalid_argument _ ->
                          fail
                            (Duplicate_name
                               { module_name = name; what = "device"; name = instance })
                      end
                  end)
              m.decl.items;
            Mae_netlist.Names.remove active name
          in
          match instantiate ~prefix:"" ~bindings:[||] top_module with
          | () -> Ok (Mae_netlist.Builder.build builder)
          | exception Flatten_error e -> Error e
        end
    end

type error =
  | Duplicate_name of { module_name : string; what : string; name : string }
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
  | No_technology { module_name } ->
      Format.fprintf ppf "module %s: no technology given" module_name
  | Module_not_found name -> Format.fprintf ppf "module %s not found" name
  | Recursive_module name ->
      Format.fprintf ppf "module %s instantiates itself (recursion)" name
  | Port_arity { module_name; instance; expected; got } ->
      Format.fprintf ppf
        "module %s: instance %s has %d pins but the child declares %d ports"
        module_name instance got expected

exception Elaborate_error of error

(* Length of the item at [items.(k)] in the stream (see Ast). *)
let item_length items k =
  let tag = items.(k) in
  if tag = Ast.tag_device then 4 + items.(k + 3)
  else if tag = Ast.tag_port then 3
  else 2

(* The technology of [m]: its last [technology] item, else the default. *)
let technology_of ?default_technology (m : Ast.module_decl) =
  let items = m.items in
  let rec last k tech =
    if k >= Array.length items then tech
    else
      last (k + item_length items k)
        (if items.(k) = Ast.tag_technology then items.(k + 1) else tech)
  in
  let tech = last 0 (-1) in
  if tech >= 0 then Some m.idents.(tech) else default_technology

let count_tag items tag =
  let rec go k n =
    if k >= Array.length items then n
    else go (k + item_length items k) (if items.(k) = tag then n + 1 else n)
  in
  go 0 0

let no_device = Mae_netlist.Device.make ~index:0 ~name:"-" ~kind:"-" ~pins:[||]

let no_port =
  Mae_netlist.Port.make ~name:"-" ~direction:Mae_netlist.Port.Inout ~net:0

let no_net = Mae_netlist.Net.make ~index:0 ~name:"-"

(* One walk of the item stream, keyed by id alone: [net_of.(id)] is the
   net index of identifier [id] (or -1), and [seen.(id)] holds one stamp
   bit per namespace, [device_bit] and [port_bit], so a repeated name
   is one byte test.  Nets are numbered on first mention, as the items
   mention them.  The module's idents are distinct, so distinct ids are
   distinct names: devices and ports by their stamp bits, nets by
   [net_of], and the circuit is built without a name table. *)
let device_bit = 1

let port_bit = 2

let build (m : Ast.module_decl) ~technology =
  let idents = m.idents and items = m.items in
  let n = Array.length idents in
  let net_of = Array.make n (-1) and net_ids = Array.make n 0 in
  let seen = Bytes.make n '\000' in
  let net_count = ref 0 in
  let net id =
    let i = net_of.(id) in
    if i >= 0 then i
    else begin
      let i = !net_count in
      net_of.(id) <- i;
      net_ids.(i) <- id;
      net_count := i + 1;
      i
    end
  in
  let claim what bit id =
    let s = Char.code (Bytes.get seen id) in
    if s land bit <> 0 then
      raise
        (Elaborate_error
           (Duplicate_name { module_name = m.name; what; name = idents.(id) }));
    Bytes.set seen id (Char.chr (s lor bit))
  in
  let devices = Array.make (count_tag items Ast.tag_device) no_device
  and ports = Array.make (count_tag items Ast.tag_port) no_port in
  let device_count = ref 0 and port_count = ref 0 in
  let k = ref 0 in
  while !k < Array.length items do
    let at = !k in
    let tag = items.(at) in
    if tag = Ast.tag_device then begin
      let id = items.(at + 1) in
      claim "device" device_bit id;
      let pins = Array.make items.(at + 3) 0 in
      for p = 0 to Array.length pins - 1 do
        pins.(p) <- net items.(at + 4 + p)
      done;
      let index = !device_count in
      devices.(index) <-
        Mae_netlist.Device.make ~index ~name:idents.(id)
          ~kind:idents.(items.(at + 2)) ~pins;
      device_count := index + 1
    end
    else if tag = Ast.tag_port then begin
      (* the port's net shares the port's name *)
      let id = items.(at + 1) in
      claim "port" port_bit id;
      ports.(!port_count) <-
        Mae_netlist.Port.make ~name:idents.(id)
          ~direction:(Ast.direction_of_code items.(at + 2))
          ~net:(net id);
      incr port_count
    end
    else if tag = Ast.tag_net then ignore (net items.(at + 1));
    k := at + item_length items at
  done;
  (* filled in place: [Array.init] from a young first net forces a
     minor collection once the array is too large for the minor heap *)
  let nets = Array.make !net_count no_net in
  for index = 0 to !net_count - 1 do
    nets.(index) <- Mae_netlist.Net.make ~index ~name:idents.(net_ids.(index))
  done;
  Mae_netlist.Circuit.of_distinct_arrays ~name:m.name ~technology ~devices ~nets
    ~ports

let module_to_circuit ?default_technology (m : Ast.module_decl) =
  match technology_of ?default_technology m with
  | None -> Error (No_technology { module_name = m.name })
  | Some technology -> (
      match build m ~technology with
      | c -> Ok c
      | exception Elaborate_error e -> Error e)

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

(* A module of the design with its port ids, in declaration order, and
   [port_position.(id)], the first position of port [id] (or -1): an
   instance's pins bind by position. *)
type indexed = {
  decl : Ast.module_decl;
  ports : int array;
  port_position : int array;
}

let index_module (m : Ast.module_decl) =
  let items = m.items in
  let ports = Array.make (count_tag items Ast.tag_port) 0 in
  let port_position = Array.make (Array.length m.idents) (-1) in
  let rec go k i =
    if k < Array.length items then
      if items.(k) = Ast.tag_port then begin
        let id = items.(k + 1) in
        ports.(i) <- id;
        if port_position.(id) < 0 then port_position.(id) <- i;
        go (k + 3) (i + 1)
      end
      else go (k + item_length items k) i
  in
  go 0 0;
  { decl = m; ports; port_position }

(* Hierarchical elaboration: walk the instance tree, renaming each child's
   nets and devices under its instance path.  Module names are interned
   once (the first definition of a name wins), so a module is an id:
   [modules.(id)] is its index and [active.(id)] tells whether it is on
   the current instance path, and each instance costs one name lookup
   plus its own items.  Prefixed names are a namespace of their own, so
   the flattened circuit is built by name. *)
let flatten ?default_technology design ~top =
  let module_names = Mae_netlist.Intern.create 64 in
  let modules =
    List.filter
      (fun (m : Ast.module_decl) -> Mae_netlist.Intern.fresh module_names m.name)
      design
    |> List.map index_module |> Array.of_list
  in
  match Mae_netlist.Intern.find module_names top with
  | -1 -> Error (Module_not_found top)
  | top_id -> begin
      match technology_of ?default_technology modules.(top_id).decl with
      | None -> Error (No_technology { module_name = top })
      | Some technology -> begin
          let builder = Mae_netlist.Builder.create ~name:top ~technology in
          let fail e = raise (Elaborate_error e) in
          let active = Array.make (Array.length modules) false in
          (* [bindings.(i)] is the parent's net on port [i] of the
             module; the top has none *)
          let rec instantiate ~prefix ~bindings module_id =
            let m = modules.(module_id) in
            let name = m.decl.name
            and idents = m.decl.idents
            and items = m.decl.items in
            if active.(module_id) then fail (Recursive_module name);
            active.(module_id) <- true;
            let resolve id =
              let i = m.port_position.(id) in
              if i >= 0 && Array.length bindings > 0 then bindings.(i)
              else prefix ^ idents.(id)
            in
            let k = ref 0 in
            while !k < Array.length items do
              let at = !k in
              let tag = items.(at) in
              if tag = Ast.tag_net then
                ignore (Mae_netlist.Builder.net builder (resolve items.(at + 1)))
              else if tag = Ast.tag_port then begin
                let id = items.(at + 1) in
                if String.equal prefix "" then (
                  (* only the top module's ports survive flattening *)
                  try
                    Mae_netlist.Builder.add_port builder ~name:idents.(id)
                      ~direction:(Ast.direction_of_code items.(at + 2))
                      ~net:(resolve id)
                  with Invalid_argument _ ->
                    fail
                      (Duplicate_name
                         { module_name = name; what = "port"; name = idents.(id) }))
                else ignore (Mae_netlist.Builder.net builder (resolve id))
              end
              else if tag = Ast.tag_device then begin
                let instance = idents.(items.(at + 1))
                and kind = idents.(items.(at + 2))
                and got = items.(at + 3) in
                let pin p = resolve items.(at + 4 + p) in
                match Mae_netlist.Intern.find module_names kind with
                | -1 -> (
                    try
                      ignore
                        (Mae_netlist.Builder.add_device builder
                           ~name:(prefix ^ instance) ~kind
                           ~nets:(List.init got pin))
                    with Invalid_argument _ ->
                      fail
                        (Duplicate_name
                           { module_name = name; what = "device"; name = instance }))
                | child ->
                    let expected = Array.length modules.(child).ports in
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
                      ~bindings:(Array.init got pin) child
              end;
              k := at + item_length items at
            done;
            active.(module_id) <- false
          in
          match instantiate ~prefix:"" ~bindings:[||] top_id with
          | () -> Ok (Mae_netlist.Builder.build builder)
          | exception Elaborate_error e -> Error e
        end
    end

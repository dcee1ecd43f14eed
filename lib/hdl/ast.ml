type module_decl = { name : string; idents : string array; items : int array }

type design = module_decl list

let tag_technology = 0

let tag_port = 1

let tag_net = 2

let tag_device = 3

let direction_code : Mae_netlist.Port.direction -> int = function
  | Input -> 0
  | Output -> 1
  | Inout -> 2

let direction_of_code : int -> Mae_netlist.Port.direction = function
  | 0 -> Input
  | 1 -> Output
  | _ -> Inout

(* Seeded inputs for the three workloads.  Everything here is a pure
   function of the seed (and, for serve-cold, of the request index), so
   a rerun with the same seed sends the program the same bytes. *)

module Circuit = Mae_netlist.Circuit
module Gen = Mae_workload.Generators

let registry = Mae_tech.Registry.create ()

type item = { hdl : string; devices : int }

let rename name (c : Circuit.t) =
  Circuit.make ~name ~technology:c.technology
    ~devices:(Array.to_list c.devices) ~nets:(Array.to_list c.nets)
    ~ports:(Array.to_list c.ports)

(* The transistor-level form of a gate-level circuit: its expansion
   through the technology's cell library (what full-custom estimation
   runs on), printed as a module of its own. *)
let flatten (c : Circuit.t) =
  let process = Mae_tech.Registry.find_exn registry c.technology in
  match Mae.Methodology.expand_for_fullcustom c process with
  | Some e -> e
  | None -> c

let item name c =
  let c = rename name c in
  { hdl = Mae_hdl.Printer.to_string c; devices = Circuit.device_count c }

let technologies = [| "nmos25"; "cmos20" |]

let random_circuit rng ~name ~devices ~technology =
  let io = max 4 (devices / 12) in
  Mae_workload.Random_circuit.generate ~name ~rng
    {
      Mae_workload.Random_circuit.default_params with
      devices;
      primary_inputs = io;
      primary_outputs = io;
      technology;
    }

(* The seed picks each circuit's wiring and the request order; the
   workload's shape -- which generators, at what sizes, in which
   technology, gate- or transistor-level -- is fixed, so runs with
   different seeds cost the program the same and compare like for like. *)

type spec =
  | Counter of int
  | Alu of int
  | Adder of int
  | Multiplier of int
  | Decoder of int
  | Random of int  (** devices *)

let build rng ~technology = function
  | Counter n -> Gen.counter ~technology n
  | Alu n -> Gen.alu ~technology n
  | Adder n -> Gen.ripple_adder ~technology n
  | Multiplier n -> Gen.multiplier ~technology n
  | Decoder n -> Gen.decoder ~technology n
  | Random devices -> random_circuit rng ~name:"r" ~devices ~technology

(* batch-mixed: one file of distinct modules -- random netlists and
   structural generators, every third one flattened to transistors,
   from 15 to ~1700 devices. *)
let batch_specs =
  let structural =
    [|
      Counter 4; Alu 2; Adder 4; Multiplier 3; Decoder 3; Counter 8; Alu 4;
      Adder 8; Multiplier 4; Decoder 4; Counter 12; Alu 6; Adder 12;
      Multiplier 6; Counter 16; Alu 8; Adder 16; Multiplier 8;
    |]
  in
  fun modules ->
    List.init modules (fun i ->
        let spec =
          if i mod 2 = 0 then Random (15 + (i * 385 / modules))
          else structural.(i / 2 mod Array.length structural)
        in
        (spec, technologies.(i / 3 mod 2), i mod 3 = 2))

let batch_mixed ~seed ~modules =
  let rng = Mae_prob.Rng.create ~seed in
  List.mapi
    (fun i (spec, technology, flat) ->
      let c = build rng ~technology spec in
      let c = if flat then flatten c else c in
      item (Printf.sprintf "m%d_%s" i c.Circuit.name) c)
    (batch_specs modules)

(* serve-hot: two dozen circuits from counter4 to a flattened 8-bit
   multiplier (gate-level, transistor-level, random). *)
let hot_specs =
  [
    (Counter 4, "nmos25", false); (Multiplier 8, "nmos25", true);
    (Multiplier 8, "nmos25", false); (Alu 8, "nmos25", false);
    (Alu 4, "cmos20", false); (Adder 8, "nmos25", false);
    (Adder 16, "cmos20", false); (Counter 8, "cmos20", false);
    (Counter 16, "nmos25", false); (Decoder 3, "nmos25", false);
    (Decoder 4, "cmos20", false); (Multiplier 4, "cmos20", false);
    (Multiplier 6, "nmos25", false); (Alu 4, "nmos25", true);
    (Counter 8, "nmos25", true); (Adder 8, "cmos20", true);
    (Decoder 4, "nmos25", true); (Random 40, "nmos25", false);
    (Random 80, "cmos20", false); (Random 120, "nmos25", false);
    (Random 160, "cmos20", false); (Random 200, "nmos25", false);
    (Random 300, "cmos20", false); (Random 100, "nmos25", true);
  ]

let serve_hot ~seed =
  let rng = Mae_prob.Rng.create ~seed in
  List.mapi
    (fun i (spec, technology, flat) ->
      let c = build rng ~technology spec in
      let c = if flat then flatten c else c in
      item (Printf.sprintf "h%d_%s" i c.Circuit.name) c)
    hot_specs

(* serve-cold: request [index] is a distinct gate-level random circuit;
   sizes sweep 50..400 devices evenly over every 351 requests (a seeded
   permutation), wiring drawn from (seed, index). *)
let serve_cold ~seed index =
  let rng = Mae_prob.Rng.create ~seed:((seed * 1_000_003) + index) in
  let devices = 50 + (((index * 211) + seed) mod 351) in
  item
    (Printf.sprintf "c%d_%d" seed index)
    (random_circuit rng ~name:"c" ~devices ~technology:technologies.(index mod 2))

(* The request order over a set of [n]: blocks of [n] requests, each a
   seeded permutation, so every circuit is asked equally often. *)
let picks ~seed ~count n =
  let rng = Mae_prob.Rng.create ~seed:(seed + 7919) in
  let block = Array.init n Fun.id in
  Array.init count (fun i ->
      if i mod n = 0 then Mae_prob.Rng.shuffle rng block;
      block.(i mod n))

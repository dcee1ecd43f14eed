(* Shared helpers for the test suites. *)

let approx ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check_float ?(eps = 1e-9) what expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let check_close ?(rel = 0.02) what expected actual =
  if Float.abs (expected -. actual) > rel *. Float.max 1e-12 (Float.abs expected)
  then Alcotest.failf "%s: expected ~%.6g (+-%g%%), got %.6g" what expected
      (100. *. rel) actual

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let nmos = Mae_tech.Builtin.nmos25

let full_adder = Mae_workload.Generators.full_adder ()

let full_adder_tx = Mae_workload.Bench_circuits.flatten full_adder

let counter8 = Mae_workload.Generators.counter 8

let rng seed = Mae_prob.Rng.create ~seed

(* A tiny hand-built circuit: two inverters in a chain with ports. *)
let tiny () =
  let b = Mae_netlist.Builder.create ~name:"tiny" ~technology:"nmos25" in
  Mae_netlist.Builder.add_port b ~name:"a" ~direction:Mae_netlist.Port.Input ~net:"a";
  Mae_netlist.Builder.add_port b ~name:"y" ~direction:Mae_netlist.Port.Output ~net:"y";
  ignore (Mae_netlist.Builder.add_device b ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"i2" ~kind:"inv" ~nets:[ "m"; "y" ]);
  Mae_netlist.Builder.build b

(* The same circuit entered in a shuffled net, device and port order:
   structurally identical, so its canonical digest (and store key) is
   unchanged. *)
let rebuild_permuted ~rng (c : Mae_netlist.Circuit.t) =
  let open Mae_netlist in
  let b = Builder.create ~name:c.name ~technology:c.technology in
  let shuffled a =
    let a = Array.copy a in
    Mae_prob.Rng.shuffle rng a;
    a
  in
  Array.iter
    (fun (n : Net.t) -> ignore (Builder.net b n.name))
    (shuffled c.nets);
  Array.iter
    (fun (d : Device.t) ->
      ignore
        (Builder.add_device b ~name:d.name ~kind:d.kind
           ~nets:
             (Array.to_list (Array.map (fun i -> c.nets.(i).Net.name) d.pins))))
    (shuffled c.devices);
  Array.iter
    (fun (p : Port.t) ->
      Builder.add_port b ~name:p.name ~direction:p.direction
        ~net:c.nets.(p.net).Net.name)
    (shuffled c.ports);
  Builder.build b

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Run [work] on a fresh domain that then stays alive, and return once
   [work] is done: the caller can read what a live domain recorded
   before that domain exits.  The returned function releases the domain
   and joins it (re-raising anything [work] raised). *)
let live_domain work =
  let worked = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set worked true) work;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get worked) do
    Domain.cpu_relax ()
  done;
  fun () ->
    Atomic.set release true;
    Domain.join d

(* Every field of a Stats.t, floats as Int64 bits, per-net arrays
   included: comparable data whose mismatch names its field. *)
let stats_fields (s : Mae_netlist.Stats.t) =
  let bits f = Int64.to_string (Int64.bits_of_float f) in
  let ints a = String.concat "," (List.map string_of_int a) in
  let pairs f l = String.concat ";" (List.map f l) in
  [
    ("device_count", string_of_int s.device_count);
    ("net_count", string_of_int s.net_count);
    ("port_count", string_of_int s.port_count);
    ( "width_classes",
      pairs (fun (w, x) -> bits w ^ "x" ^ string_of_int x) s.width_classes );
    ("average_width", bits s.average_width);
    ("average_height", bits s.average_height);
    ("total_device_area", bits s.total_device_area);
    ( "degree_histogram",
      pairs (fun (d, y) -> string_of_int d ^ "x" ^ string_of_int y)
        s.degree_histogram );
    ("max_degree", string_of_int s.max_degree);
    ("net_degrees", ints (Array.to_list s.net_degrees));
    ("net_widths", String.concat "," (Array.to_list (Array.map bits s.net_widths)));
  ]

let fullcustom_bits (e : Mae.Estimate.fullcustom) =
  List.map Int64.bits_of_float
    [ e.device_area; e.wire_area; e.area; e.width; e.height;
      Mae_geom.Aspect.ratio e.aspect_raw; Mae_geom.Aspect.ratio e.aspect ]

(* What full-custom estimation reads of a circuit's expansion: its
   statistics, both modes' estimates as bits, and the --verbose ledger
   text, or the error that stops it. *)
let fullcustom_view stats c process =
  match stats () with
  | exception Mae_netlist.Stats.Unknown_kind k -> Error ("unknown kind " ^ k)
  | Error e -> Error (Format.asprintf "%a" Mae_celllib.Expand.pp_error e)
  | Ok (s : Mae_netlist.Stats.t) ->
      let estimates =
        if s.device_count = 0 then []
        else
          List.concat_map
            (fun mode ->
              fullcustom_bits (Mae.Fullcustom.estimate ~stats:s ~mode c process))
            [ Mae.Config.Exact_areas; Mae.Config.Average_areas ]
      in
      let ledger =
        if s.device_count = 0 then ""
        else
          Format.asprintf "%a" Mae.Fullcustom.pp_ledger
            (Mae.Fullcustom.ledger ~stats:s ~mode:Mae.Config.Exact_areas c process)
      in
      Ok (stats_fields s, estimates, ledger)

(* The expansion walk ([Expand.stats]) against [Stats.compute] of the
   built expansion ([Expand.circuit]): the same statistics field by
   field, the same estimates and ledger, or the same error.  Returns the
   first differing part, [None] when they agree. *)
let walk_disagreement library (c : Mae_netlist.Circuit.t) process =
  let walked =
    fullcustom_view (fun () -> Mae_celllib.Expand.stats library c process) c process
  in
  let built =
    match Mae_celllib.Expand.circuit library c with
    | Error e -> fullcustom_view (fun () -> Error e) c process
    | Ok tx ->
        fullcustom_view (fun () -> Ok (Mae_netlist.Stats.compute tx process)) tx
          process
  in
  match (walked, built) with
  | Error a, Error b when String.equal a b -> None
  | Ok (fa, ea, la), Ok (fb, eb, lb) -> (
      match List.find_opt (fun (k, v) -> List.assoc k fb <> v) fa with
      | Some (k, _) -> Some k
      | None ->
          if ea <> eb then Some "estimates"
          else if not (String.equal la lb) then Some "ledger"
          else None)
  | Error a, Error b -> Some (Printf.sprintf "errors %s / %s" a b)
  | Error a, Ok _ -> Some ("walk failed: " ^ a)
  | Ok _, Error b -> Some ("expansion failed: " ^ b)

let walk_agrees library c process = walk_disagreement library c process = None

let check_walk library (c : Mae_netlist.Circuit.t) process =
  match walk_disagreement library c process with
  | None -> ()
  | Some what -> Alcotest.failf "%s: walk and expansion differ in %s" c.name what

(* The process a cell library's transistors are defined in. *)
let library_process library =
  if library == Mae_celllib.Nmos_lib.library then Mae_tech.Builtin.nmos25
  else Mae_tech.Builtin.cmos20

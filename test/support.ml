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

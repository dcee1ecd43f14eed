(* Quickstart: describe a module in the structural HDL, run the Figure 1
   pipeline (input interface -> both estimators -> output database) and
   print what a floor planner would receive.

     dune exec examples/quickstart.exe *)

let hdl_text =
  {|
  // A one-bit full adder in the nMOS 2.5um process.
  module full_adder {
    technology nmos25;
    port a in;  port b in;  port cin in;
    port s out; port cout out;
    device x1 xor2 (a, b, p);
    device x2 xor2 (p, cin, s);
    device g1 nand2 (a, b, g);
    device g2 nand2 (p, cin, h);
    device g3 nand2 (g, h, cout);
  }
|}

let () =
  let registry = Mae_tech.Registry.create () in
  match Mae.Driver.run_string ~registry hdl_text with
  | Error e -> Format.printf "estimation failed: %a@." Mae.Driver.pp_error e
  | Ok reports ->
      List.iter
        (fun (r : Mae.Driver.module_report) ->
          Format.printf "== %a ==@."
            Mae_netlist.Circuit.pp_summary r.circuit;
          begin
            let stats = Mae_netlist.Stats.compute r.circuit r.process in
            let fc = Mae.Methodology.fullcustom_stats ~stats r.circuit r.process in
            if fc != stats then
              Format.printf "flattened for full-custom: %d transistors@."
                fc.Mae_netlist.Stats.device_count
          end;
          (* the default method set always carries these three results *)
          begin
            match Mae.Driver.stdcell r with
            | Some sc -> Format.printf "%a@." Mae.Estimate.pp_stdcell sc
            | None -> ()
          end;
          Format.printf "row sweep:@.";
          List.iter
            (fun (e : Mae.Estimate.stdcell) ->
              Format.printf "  %a@." Mae.Estimate.pp_stdcell e)
            (Mae.Driver.stdcell_sweep r);
          begin
            match Mae.Driver.fullcustom_exact r with
            | Some fc ->
                Format.printf "%a  (exact device areas)@."
                  Mae.Estimate.pp_fullcustom fc
            | None -> ()
          end;
          begin
            match Mae.Driver.fullcustom_average r with
            | Some fc ->
                Format.printf "%a  (average device areas)@."
                  Mae.Estimate.pp_fullcustom fc
            | None -> ()
          end;
          match Mae_db.Record.of_report r with
          | Error msg -> Format.printf "no database entry: %s@." (Mae_db.Record.of_report_error_to_string msg)
          | Ok record ->
              let store = Mae_db.Store.create () in
              Mae_db.Store.add store record;
              Format.printf "@.database entry for the floor planner:@.%s@."
                (Mae_db.Store.to_string store))
        reports

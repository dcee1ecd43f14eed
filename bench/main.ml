(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (section 6), plus the in-text numerical-simulation claims and
   the section 7 future-work studies.  See EXPERIMENTS.md for the
   paper-vs-measured discussion of each section printed here.

     dune exec bench/main.exe *)

module Table = Mae_report.Table
module Err = Mae_report.Err

let process = Mae_tech.Builtin.nmos25

let line = String.make 78 '='

let section title =
  Printf.printf "\n%s\n== %s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 1: full-custom module layout area estimates                   *)
(* ------------------------------------------------------------------ *)

let table1_rows () =
  List.map
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      let exact, average = Mae.Fullcustom.estimate_both e.circuit process in
      let real =
        Mae_layout.Fc_flow.run ~rng:(Mae_prob.Rng.create ~seed:1988) e.circuit
          process
      in
      (e, exact, average, real))
    (Mae_workload.Bench_circuits.table1 ())

let run_table1 () =
  section "Table 1: Full-Custom module layout area estimates (nmos25)";
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("#dev", Table.Right);
          ("#nets", Table.Right);
          ("#ports", Table.Right);
          ("dev area", Table.Right);
          ("wire est", Table.Right);
          ("est(exact)", Table.Right);
          ("est(avg)", Table.Right);
          ("real", Table.Right);
          ("err(exact)", Table.Right);
          ("err(avg)", Table.Right);
          ("asp est", Table.Right);
          ("asp real", Table.Right);
        ]
  in
  let errors = ref [] in
  let aspect_errors = ref [] in
  List.iter
    (fun ((e : Mae_workload.Bench_circuits.entry),
          (exact : Mae.Estimate.fullcustom),
          (average : Mae.Estimate.fullcustom),
          (real : Mae_layout.Row_layout.t)) ->
      errors := Err.percent ~estimated:exact.area ~real:real.area :: !errors;
      aspect_errors :=
        Mae_geom.Aspect.error ~estimated:exact.aspect ~real:real.aspect
        :: !aspect_errors;
      Table.add_row t
        [
          e.name;
          string_of_int (Mae_netlist.Circuit.device_count e.circuit);
          string_of_int (Mae_netlist.Circuit.net_count e.circuit);
          string_of_int (Mae_netlist.Circuit.port_count e.circuit);
          Err.f0 exact.device_area;
          Err.f0 exact.wire_area;
          Err.f0 exact.area;
          Err.f0 average.area;
          Err.f0 real.area;
          Err.percent_string ~estimated:exact.area ~real:real.area;
          Err.percent_string ~estimated:average.area ~real:real.area;
          Err.aspect_string (Mae_geom.Aspect.ratio exact.aspect);
          Err.aspect_string (Mae_geom.Aspect.ratio real.aspect);
        ])
    (table1_rows ());
  Table.print t;
  let lo, hi = Mae_prob.Stats.min_max !errors in
  Printf.printf
    "error range %+.1f%% .. %+.1f%%, mean |error| %.1f%%\n\
     (paper: -17%% .. +26%%, mean 12%%; the all-two-component module\n\
     pass8 reproduces the footnote: zero estimated wire area)\n"
    lo hi
    (Mae_prob.Stats.mean_abs !errors);
  Printf.printf
    "mean orientation-free aspect-ratio error %.0f%% -- the paper notes\n\
     aspect ratios \"are hard to match with exact ones\" since port sides\n\
     are unknown before floor planning (section 6).\n"
    (100. *. Mae_prob.Stats.mean_abs !aspect_errors)

(* ------------------------------------------------------------------ *)
(* Table 2: standard-cell module layout area estimates                 *)
(* ------------------------------------------------------------------ *)

let table2_sweep = [ 2; 3; 4; 6 ]

let table2_rows () =
  List.concat_map
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      List.map
        (fun rows ->
          let est = Mae.Stdcell.estimate ~rows e.circuit process in
          let real =
            Mae_layout.Sc_flow.run ~rng:(Mae_prob.Rng.create ~seed:1988) ~rows
              e.circuit process
          in
          (e, rows, est, real))
        table2_sweep)
    (Mae_workload.Bench_circuits.table2 ())

let run_table2 () =
  section "Table 2: Standard-Cell module layout area estimates (nmos25)";
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("rows", Table.Right);
          ("est h", Table.Right);
          ("est w", Table.Right);
          ("trk est", Table.Right);
          ("trk real", Table.Right);
          ("est area", Table.Right);
          ("real area", Table.Right);
          ("err", Table.Right);
          ("asp est", Table.Right);
          ("asp real", Table.Right);
        ]
  in
  let errors = ref [] in
  let previous = ref "" in
  List.iter
    (fun ((e : Mae_workload.Bench_circuits.entry), rows,
          (est : Mae.Estimate.stdcell), (real : Mae_layout.Row_layout.t)) ->
      if !previous <> "" && !previous <> e.name then Table.add_separator t;
      previous := e.name;
      errors := Err.percent ~estimated:est.area ~real:real.area :: !errors;
      Table.add_row t
        [
          e.name;
          string_of_int rows;
          Err.f0 est.height;
          Err.f0 est.width;
          string_of_int est.tracks;
          string_of_int real.total_tracks;
          Err.f0 est.area;
          Err.f0 real.area;
          Err.percent_string ~estimated:est.area ~real:real.area;
          Err.aspect_string (Mae_geom.Aspect.ratio est.aspect_raw);
          Err.aspect_string (Mae_geom.Aspect.ratio real.aspect);
        ])
    (table2_rows ());
  Table.print t;
  let lo, hi = Mae_prob.Stats.min_max !errors in
  Printf.printf
    "every estimate is an upper bound (positive error) and the estimate\n\
     decreases as rows increase -- the paper's two qualitative findings.\n\
     overestimate range %+.0f%% .. %+.0f%% (paper: +42%% .. +70%%); ours is\n\
     larger because the left-edge router shares tracks more aggressively\n\
     than the 1988 flow -- exactly the effect the paper blames, amplified;\n\
     see the track-sharing ablation below and EXPERIMENTS.md.\n"
    lo hi

(* ------------------------------------------------------------------ *)
(* Figure 1: the estimator pipeline                                    *)
(* ------------------------------------------------------------------ *)

let run_figure1 () =
  section "Figure 1: estimator structure (HDL -> estimates -> database)";
  let registry = Mae_tech.Registry.create () in
  let hdl =
    Mae_hdl.Printer.to_string (Mae_workload.Generators.full_adder ())
  in
  match Mae.Driver.run_string ~registry hdl with
  | Error e -> Format.printf "pipeline failed: %a@." Mae.Driver.pp_error e
  | Ok reports ->
      let store = Mae_db.Store.create () in
      List.iter
        (fun r ->
          match Mae_db.Record.of_report r with
          | Ok record -> Mae_db.Store.add store record
          | Error e ->
              Printf.printf "no database entry: %s\n"
                (Mae_db.Record.of_report_error_to_string e))
        reports;
      print_string (Mae_db.Store.to_string store);
      Printf.printf
        "(input interface parsed %d module(s); both estimators ran; the\n\
         database above is what the floor planner consumes)\n"
        (List.length reports)

(* ------------------------------------------------------------------ *)
(* Section 4.1 in-text: central-row simulation and the eq. 9 limit     *)
(* ------------------------------------------------------------------ *)

let run_central_row () =
  section "Numerical simulation: the central row maximizes P(feed-through)";
  let t =
    Table.create
      ~columns:
        [
          ("rows", Table.Right);
          ("degree", Table.Right);
          ("argmax (analytic)", Table.Right);
          ("argmax (monte carlo)", Table.Right);
          ("central", Table.Right);
        ]
  in
  List.iter
    (fun (rows, degree) ->
      let analytic = Mae.Feedthrough.argmax_row ~rows ~degree in
      let stats =
        Mae_prob.Montecarlo.simulate_net
          ~rng:(Mae_prob.Rng.create ~seed:54)
          ~trials:100_000 ~rows ~degree
      in
      let mc = Mae_prob.Montecarlo.argmax_feed_through stats in
      Table.add_row t
        [
          string_of_int rows;
          string_of_int degree;
          string_of_int analytic;
          string_of_int mc;
          Printf.sprintf "%.1f" (Mae.Feedthrough.central_row ~rows);
        ])
    [ (3, 2); (5, 2); (5, 4); (7, 2); (7, 5); (9, 3); (11, 2); (11, 7) ];
  Table.print t;
  print_newline ();
  let t2 =
    Table.create
      ~columns:[ ("rows n", Table.Right); ("P_feed = ((n-1)/n)^2 / 2", Table.Right) ]
  in
  List.iter
    (fun n ->
      Table.add_row t2
        [ string_of_int n;
          Printf.sprintf "%.4f" (Mae.Feedthrough.prob_two_component ~rows:n) ])
    [ 1; 2; 3; 5; 10; 100; 1000 ];
  Table.print t2;
  print_endline "the limit is 0.5, as equation (9) states."

(* ------------------------------------------------------------------ *)
(* Section 7 ablation: track-sharing correction                        *)
(* ------------------------------------------------------------------ *)

let run_ablation_sharing () =
  section "Ablation: the section-7 track-sharing correction (cross-calibrated)";
  let rows_data = table2_rows () in
  (* Leave-one-circuit-out: calibrate the factor on the OTHER circuit's
     (estimate, real) pairs, so nothing is fitted to the data it predicts. *)
  let factor_excluding name =
    let pairs =
      List.filter_map
        (fun ((e : Mae_workload.Bench_circuits.entry), _,
              est, (real : Mae_layout.Row_layout.t)) ->
          if String.equal e.name name then None else Some (est, real.area))
        rows_data
    in
    Mae.Extensions.calibrate_sharing_factor pairs
  in
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("rows", Table.Right);
          ("factor", Table.Right);
          ("raw est", Table.Right);
          ("raw err", Table.Right);
          ("corrected est", Table.Right);
          ("corrected err", Table.Right);
        ]
  in
  List.iter
    (fun ((e : Mae_workload.Bench_circuits.entry), rows,
          (est : Mae.Estimate.stdcell), (real : Mae_layout.Row_layout.t)) ->
      match factor_excluding e.name with
      | None -> ()
      | Some factor ->
          let corrected =
            Mae.Extensions.with_track_sharing ~factor ~rows e.circuit process
          in
          Table.add_row t
            [
              e.name;
              string_of_int rows;
              Printf.sprintf "%.3f" factor;
              Err.f0 est.area;
              Err.percent_string ~estimated:est.area ~real:real.area;
              Err.f0 corrected.area;
              Err.percent_string ~estimated:corrected.area ~real:real.area;
            ])
    rows_data;
  Table.print t;
  print_endline
    "the sharing factor is calibrated on the other circuit only (leave-one-\n\
     circuit-out); with the correction the estimates fall into or near the\n\
     paper's reported +42..70% band; the residual overestimate is the\n\
     feed-through and cell-area floor of equation (12)."

(* ------------------------------------------------------------------ *)
(* Section 7 ablation: row-span model variants                         *)
(* ------------------------------------------------------------------ *)

let run_ablation_row_model () =
  section "Ablation: equation-2 exponent heuristic vs exact occupancy";
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("rows", Table.Right);
          ("tracks (paper eq.2)", Table.Right);
          ("tracks (exact)", Table.Right);
          ("area (paper)", Table.Right);
          ("area (exact)", Table.Right);
        ]
  in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      List.iter
        (fun rows ->
          let paper = Mae.Stdcell.estimate ~rows e.circuit process in
          let exact =
            Mae.Stdcell.estimate
              ~config:{ Mae.Config.default with row_span_model = Mae.Config.Exact_occupancy }
              ~rows e.circuit process
          in
          Table.add_row t
            [
              e.name;
              string_of_int rows;
              string_of_int paper.Mae.Estimate.tracks;
              string_of_int exact.Mae.Estimate.tracks;
              Err.f0 paper.Mae.Estimate.area;
              Err.f0 exact.Mae.Estimate.area;
            ])
        [ 2; 4 ])
    (Mae_workload.Bench_circuits.table2 ());
  Table.print t;
  print_endline
    "the k = min(n, D) heuristic of equation (2) coincides with the exact\n\
     occupancy distribution whenever n >= D, so differences only appear\n\
     when wide nets meet few rows."

(* ------------------------------------------------------------------ *)
(* Section 7: floor-planning iteration study                           *)
(* ------------------------------------------------------------------ *)

let run_floorplan_iterations () =
  section "Floor-planning iterations: estimator seeds vs naive seeds";
  let quick = Mae_layout.Anneal.quick_schedule in
  let t =
    Table.create
      ~columns:
        [
          ("seed", Table.Right);
          ("modules", Table.Right);
          ("rounds (estimator)", Table.Right);
          ("rounds (naive)", Table.Right);
          ("chip (estimator)", Table.Right);
          ("chip (naive)", Table.Right);
        ]
  in
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let rng = Mae_prob.Rng.create ~seed in
      let modules =
        Mae_workload.Rent.generate_modules ~rng
          { Mae_workload.Rent.default_params with clusters = 5; cluster_size = 24 }
      in
      let reals =
        List.map
          (fun c ->
            let rows = Mae.Row_select.initial_rows c process in
            (Mae_layout.Sc_flow.run ~schedule:quick
               ~rng:(Mae_prob.Rng.split rng) ~rows c process)
              .Mae_layout.Row_layout.area)
          modules
      in
      let spec_of shapes c real_area =
        { Mae_floorplan.Flow.name = c.Mae_netlist.Circuit.name;
          estimated_shapes = shapes; real_area }
      in
      let estimator_specs =
        List.map2
          (fun c real ->
            let candidates =
              Mae.Extensions.stdcell_shape_candidates c process
              |> List.map (fun (e : Mae.Estimate.stdcell) -> (e.width, e.height))
            in
            spec_of
              (Mae_floorplan.Shape.with_rotations
                 (Mae_floorplan.Shape.of_list candidates))
              c real)
          modules reals
      in
      let naive_specs =
        List.map2
          (fun c real ->
            let w, h = Mae_baselines.Naive.estimate_square c process in
            spec_of (Mae_floorplan.Shape.singleton ~w ~h) c real)
          modules reals
      in
      let est_report =
        Mae_floorplan.Flow.converge ~schedule:quick
          ~rng:(Mae_prob.Rng.create ~seed:(seed * 7)) estimator_specs
      in
      let naive_report =
        Mae_floorplan.Flow.converge ~schedule:quick
          ~rng:(Mae_prob.Rng.create ~seed:(seed * 7)) naive_specs
      in
      incr total;
      if est_report.Mae_floorplan.Flow.rounds <= naive_report.Mae_floorplan.Flow.rounds
      then incr wins;
      Table.add_row t
        [
          string_of_int seed;
          string_of_int (List.length modules);
          string_of_int est_report.Mae_floorplan.Flow.rounds;
          string_of_int naive_report.Mae_floorplan.Flow.rounds;
          Err.f0 est_report.Mae_floorplan.Flow.final_chip_area;
          Err.f0 naive_report.Mae_floorplan.Flow.final_chip_area;
        ])
    [ 1; 2; 3; 4; 5 ];
  Table.print t;
  Printf.printf
    "estimator seeds converge in no more rounds than naive seeds on %d/%d\n\
     chips (the motivation in the paper's introduction); the conservative\n\
     upper-bound estimates trade some final chip area for convergence.\n"
    !wins !total

(* ------------------------------------------------------------------ *)
(* Section 7 caveat: error growth with module size                     *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  section "Scaling: \"works well for small and moderate-sized modules\"";
  let t =
    Table.create
      ~columns:
        [
          ("module", Table.Left);
          ("#tx", Table.Right);
          ("est (exact)", Table.Right);
          ("real", Table.Right);
          ("err", Table.Right);
        ]
  in
  List.iter
    (fun bits ->
      let circuit =
        Mae_workload.Bench_circuits.flatten
          (Mae_workload.Generators.ripple_adder bits)
      in
      let est =
        Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas circuit process
      in
      let real =
        Mae_layout.Fc_flow.run ~schedule:Mae_layout.Anneal.quick_schedule
          ~rng:(Mae_prob.Rng.create ~seed:1988) circuit process
      in
      Table.add_row t
        [
          Printf.sprintf "adder%d_tx" bits;
          string_of_int (Mae_netlist.Circuit.device_count circuit);
          Err.f0 est.Mae.Estimate.area;
          Err.f0 real.Mae_layout.Row_layout.area;
          Err.percent_string ~estimated:est.Mae.Estimate.area
            ~real:real.Mae_layout.Row_layout.area;
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t;
  let t2 =
    Table.create
      ~columns:
        [
          ("module", Table.Left);
          ("#cells", Table.Right);
          ("SC est", Table.Right);
          ("SC real", Table.Right);
          ("err", Table.Right);
        ]
  in
  List.iter
    (fun (name, circuit) ->
      let rows = Mae.Row_select.initial_rows circuit process in
      let est = Mae.Stdcell.estimate ~rows circuit process in
      let real =
        Mae_layout.Sc_flow.run ~schedule:Mae_layout.Anneal.quick_schedule
          ~rng:(Mae_prob.Rng.create ~seed:1988) ~rows circuit process
      in
      Table.add_row t2
        [
          name;
          string_of_int (Mae_netlist.Circuit.device_count circuit);
          Err.f0 est.Mae.Estimate.area;
          Err.f0 real.Mae_layout.Row_layout.area;
          Err.percent_string ~estimated:est.Mae.Estimate.area
            ~real:real.Mae_layout.Row_layout.area;
        ])
    [
      ("counter4", Mae_workload.Generators.counter 4);
      ("counter8", Mae_workload.Generators.counter 8);
      ("counter16", Mae_workload.Generators.counter 16);
      ("alu8", Mae_workload.Generators.alu 8);
      ("mult8", Mae_workload.Generators.multiplier 8);
    ];
  Table.print t2;
  print_endline
    "the minimum-interconnection model of equation (13) underestimates more\n\
     and more as modules grow (wiring grows super-linearly); this is the\n\
     conclusion's caveat that the estimator \"is not intended for area\n\
     estimation of entire chips\"; the standard-cell upper bound drifts the\n\
     same way as its one-net-per-track pessimism compounds.  Chip assembly\n\
     belongs to the floor planner (Mae_floorplan.Chip)."

(* ------------------------------------------------------------------ *)
(* Section 2: prior-work baselines                                     *)
(* ------------------------------------------------------------------ *)

let run_baselines () =
  section "Prior work (section 2): PLEST, CHAMP, naive vs this estimator";
  let quick = Mae_layout.Anneal.quick_schedule in
  (* training data for CHAMP: layouts of random circuits *)
  let layout_area c rows seed =
    (Mae_layout.Sc_flow.run ~schedule:quick ~rng:(Mae_prob.Rng.create ~seed)
       ~rows c process)
      .Mae_layout.Row_layout.area
  in
  let training =
    List.map
      (fun devices ->
        let c =
          Mae_workload.Random_circuit.generate
            ~rng:(Mae_prob.Rng.create ~seed:devices)
            { Mae_workload.Random_circuit.default_params with devices }
        in
        let rows = Mae.Row_select.initial_rows c process in
        (devices, layout_area c rows (devices + 1)))
      [ 20; 30; 45; 60; 80 ]
  in
  let champ =
    match Mae_baselines.Champ.fit training with
    | Ok model -> Some model
    | Error _ -> None
  in
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("real", Table.Right);
          ("this work", Table.Right);
          ("plest(oracle)", Table.Right);
          ("champ", Table.Right);
          ("naive", Table.Right);
        ]
  in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      let rows = Mae.Row_select.initial_rows e.circuit process in
      let layout =
        Mae_layout.Sc_flow.run ~schedule:quick
          ~rng:(Mae_prob.Rng.create ~seed:77) ~rows e.circuit process
      in
      let real = layout.Mae_layout.Row_layout.area in
      let ours = (Mae.Stdcell.estimate ~rows e.circuit process).Mae.Estimate.area in
      let plest =
        Mae_baselines.Plest.estimate
          ~density:(Mae_baselines.Plest.oracle_density layout)
          ~rows e.circuit process
      in
      let champ_est =
        match champ with
        | Some model ->
            Err.f0
              (Mae_baselines.Champ.estimate model
                 ~devices:(Mae_netlist.Circuit.device_count e.circuit))
        | None -> "n/a"
      in
      let naive = Mae_baselines.Naive.estimate e.circuit process in
      Table.add_row t
        [
          e.name; Err.f0 real; Err.f0 ours; Err.f0 plest; champ_est; Err.f0 naive;
        ])
    (Mae_workload.Bench_circuits.table2 ());
  Table.print t;
  print_endline
    "PLEST is fed the post-layout density (which is the paper's critique:\n\
     that information exists only after layout); CHAMP interpolates its\n\
     training law; this work needs neither.";
  print_endline
    "\nGerveshi's PLA model (linear in product terms), for contrast:";
  let t2 =
    Table.create
      ~columns:
        [ ("PLA spec", Table.Left); ("devices", Table.Right); ("area", Table.Right) ]
  in
  List.iter
    (fun product_terms ->
      let spec = { Mae_baselines.Pla.inputs = 8; outputs = 4; product_terms } in
      Table.add_row t2
        [
          Printf.sprintf "8in/4out/%dpt" product_terms;
          string_of_int (Mae_baselines.Pla.device_count spec);
          Err.f0 (Mae_baselines.Pla.area spec process);
        ])
    [ 8; 16; 32; 64 ];
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Robustness: key statistics across layout seeds                      *)
(* ------------------------------------------------------------------ *)

let run_robustness () =
  section "Robustness: headline statistics across layout seeds";
  let t =
    Table.create
      ~columns:
        [
          ("seed", Table.Right);
          ("T1 mean |err|", Table.Right);
          ("T1 range", Table.Right);
          ("T2 overestimate range", Table.Right);
          ("T2 upper bound", Table.Left);
        ]
  in
  List.iter
    (fun seed ->
      let t1_errors =
        List.map
          (fun (e : Mae_workload.Bench_circuits.entry) ->
            let est =
              Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas e.circuit
                process
            in
            let real =
              Mae_layout.Fc_flow.run ~rng:(Mae_prob.Rng.create ~seed) e.circuit
                process
            in
            Err.percent ~estimated:est.Mae.Estimate.area
              ~real:real.Mae_layout.Row_layout.area)
          (Mae_workload.Bench_circuits.table1 ())
      in
      let t2_errors =
        List.concat_map
          (fun (e : Mae_workload.Bench_circuits.entry) ->
            List.map
              (fun rows ->
                let est = Mae.Stdcell.estimate ~rows e.circuit process in
                let real =
                  Mae_layout.Sc_flow.run ~schedule:Mae_layout.Anneal.quick_schedule
                    ~rng:(Mae_prob.Rng.create ~seed) ~rows e.circuit process
                in
                Err.percent ~estimated:est.Mae.Estimate.area
                  ~real:real.Mae_layout.Row_layout.area)
              [ 2; 4 ])
          (Mae_workload.Bench_circuits.table2 ())
      in
      let lo1, hi1 = Mae_prob.Stats.min_max t1_errors in
      let lo2, hi2 = Mae_prob.Stats.min_max t2_errors in
      Table.add_row t
        [
          string_of_int seed;
          Printf.sprintf "%.1f%%" (Mae_prob.Stats.mean_abs t1_errors);
          Printf.sprintf "%+.0f%% .. %+.0f%%" lo1 hi1;
          Printf.sprintf "%+.0f%% .. %+.0f%%" lo2 hi2;
          (if lo2 > 0. then "holds" else "VIOLATED");
        ])
    [ 1988; 1989; 1990; 42 ];
  Table.print t;
  print_endline
    "the qualitative findings survive the layout substrate's randomness:\n\
     full-custom errors stay in the tens of percent, the standard-cell\n\
     bound never inverts."

(* ------------------------------------------------------------------ *)
(* Extension: the third methodology (gate array)                       *)
(* ------------------------------------------------------------------ *)

let run_methodologies () =
  section "Methodology choice (intro use case; gate array is our extension)";
  let t =
    Table.create
      ~columns:
        [
          ("module", Table.Left);
          ("full-custom", Table.Right);
          ("standard-cell", Table.Right);
          ("gate-array", Table.Right);
          ("GA routable", Table.Left);
          ("pick", Table.Left);
        ]
  in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      let flat = Mae_workload.Bench_circuits.flatten e.circuit in
      let fc = Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas flat process in
      let sc = Mae.Stdcell.estimate_auto e.circuit process in
      match Mae.Gatearray.estimate_routable e.circuit process with
      | Error err -> Printf.printf "%s: gate array failed (%s)\n" e.name err
      | Ok ga ->
          let picks =
            [
              ("full-custom", fc.Mae.Estimate.area);
              ("standard-cell", sc.Mae.Estimate.area);
              ("gate-array", ga.Mae.Gatearray.area);
            ]
          in
          let pick =
            List.fold_left
              (fun (bn, ba) (n, a) -> if a < ba then (n, a) else (bn, ba))
              ("", Float.infinity) picks
            |> fst
          in
          Table.add_row t
            [
              e.name;
              Err.f0 fc.Mae.Estimate.area;
              Err.f0 sc.Mae.Estimate.area;
              Err.f0 ga.Mae.Gatearray.area;
              (if ga.Mae.Gatearray.routable then "yes" else "no");
              pick;
            ])
    (Mae_workload.Bench_circuits.table2 ());
  Table.print t;
  print_endline
    "\"the designer can then intelligently choose the most appropriate\n\
     methodology\" (introduction) -- full-custom buys the least area at the\n\
     most design effort; the gate array trades fixed prediffused channels\n\
     for zero wiring uncertainty (routability checked with the paper's own\n\
     equation 2-3 track model)."

(* ------------------------------------------------------------------ *)
(* Detailed routing cross-check                                        *)
(* ------------------------------------------------------------------ *)

let run_routing_check () =
  section "Detailed routing cross-check (wires expanded, geometry LVS)";
  let t =
    Table.create
      ~columns:
        [
          ("experiment", Table.Left);
          ("rows", Table.Right);
          ("segments", Table.Right);
          ("vias", Table.Right);
          ("wire length", Table.Right);
          ("HPWL", Table.Right);
          ("LVS", Table.Left);
        ]
  in
  List.iter
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      List.iter
        (fun rows ->
          let layout =
            Mae_layout.Sc_flow.run ~rng:(Mae_prob.Rng.create ~seed:1988) ~rows
              e.circuit process
          in
          let wiring = Mae_layout.Sc_flow.wiring e.circuit process layout in
          let report = Mae_layout.Extract.lvs wiring e.circuit in
          Table.add_row t
            [
              e.name;
              string_of_int rows;
              string_of_int (Mae_layout.Wiring.segment_count wiring);
              string_of_int (List.length wiring.Mae_layout.Wiring.vias);
              Err.f0 (Mae_layout.Wiring.wire_length wiring);
              Err.f0 layout.Mae_layout.Row_layout.hpwl;
              (if Mae_layout.Extract.clean report then "clean"
               else
                 Printf.sprintf "%d opens / %d shorts (%d doglegs needed)"
                   (List.length report.Mae_layout.Extract.opens)
                   (List.length report.Mae_layout.Extract.shorts)
                   wiring.Mae_layout.Wiring.dropped_constraints);
            ])
        [ 3; 4 ])
    (Mae_workload.Bench_circuits.table2 ());
  Table.print t;
  print_endline
    "the \"real\" areas of Table 2 come from layouts whose expanded wiring\n\
     reconnects exactly the source netlist (geometric extraction, net ids\n\
     unused) -- the comparator is not an abstraction."

(* ------------------------------------------------------------------ *)
(* Runtime: Bechamel micro-benchmarks (the paper's CPU-time claims)    *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let counter8 = Mae_workload.Generators.counter 8 in
  let alu4 = Mae_workload.Generators.alu 4 in
  let fa_tx = Mae_workload.Bench_circuits.flatten (Mae_workload.Generators.full_adder ()) in
  [
    Test.make ~name:"table1: fullcustom estimate (fa_tx)"
      (Staged.stage (fun () ->
           ignore (Mae.Fullcustom.estimate_both fa_tx process)));
    Test.make ~name:"table2: stdcell estimate (counter8, auto rows)"
      (Staged.stage (fun () -> ignore (Mae.Stdcell.estimate_auto counter8 process)));
    Test.make ~name:"table2: stdcell estimate (alu4, auto rows)"
      (Staged.stage (fun () -> ignore (Mae.Stdcell.estimate_auto alu4 process)));
    Test.make ~name:"eq2-3: row model (n=6, D=4)"
      (Staged.stage (fun () ->
           ignore
             (Mae.Row_model.expected_span ~model:Mae.Config.Paper_model ~rows:6
                ~degree:4)));
    Test.make ~name:"eq5: feed-through probability (n=9, D=5)"
      (Staged.stage (fun () ->
           ignore (Mae.Feedthrough.prob_in_row ~rows:9 ~degree:5 ~row:5)));
    Test.make ~name:"figure1: full pipeline (full_adder HDL)"
      (Staged.stage
         (let registry = Mae_tech.Registry.create () in
          let hdl = Mae_hdl.Printer.to_string (Mae_workload.Generators.full_adder ()) in
          fun () -> ignore (Mae.Driver.run_string ~registry hdl)));
    Test.make ~name:"substrate: sc layout flow (counter8, quick)"
      (Staged.stage (fun () ->
           ignore
             (Mae_layout.Sc_flow.run ~schedule:Mae_layout.Anneal.quick_schedule
                ~rng:(Mae_prob.Rng.create ~seed:1) ~rows:3 counter8 process)));
    Test.make ~name:"substrate: fc layout flow (fa_tx, quick)"
      (Staged.stage (fun () ->
           ignore
             (Mae_layout.Fc_flow.run ~schedule:Mae_layout.Anneal.quick_schedule
                ~rng:(Mae_prob.Rng.create ~seed:1) fa_tx process)));
    Test.make ~name:"substrate: floorplan anneal (6 modules, quick)"
      (Staged.stage
         (let shapes =
            Array.init 6 (fun i ->
                Mae_floorplan.Shape.with_rotations
                  (Mae_floorplan.Shape.singleton
                     ~w:(Float.of_int (10 + i))
                     ~h:(Float.of_int (20 - i))))
          in
          fun () ->
            ignore
              (Mae_floorplan.Fp_anneal.run
                 ~schedule:Mae_layout.Anneal.quick_schedule
                 ~rng:(Mae_prob.Rng.create ~seed:2) shapes)));
  ]

let run_timings () =
  section "Runtime (paper section 6: <1.5s full-custom, <3s standard-cell)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t =
    Table.create
      ~columns:[ ("benchmark", Table.Left); ("time per run", Table.Right) ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let result = Analyze.one ols instance raw in
          let nanos =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> est
            | Some _ | None -> Float.nan
          in
          let human =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
            else Printf.sprintf "%.0f ns" nanos
          in
          Table.add_row t [ Test.Elt.name elt; human ])
        (Test.elements test))
    (bechamel_tests ());
  Table.print t;
  print_endline
    "every estimator runs in microseconds-to-milliseconds, comfortably\n\
     inside the paper's seconds-level budget on a 1988 Sun 3/50."

(* ------------------------------------------------------------------ *)
(* Batch engine throughput: sequential vs parallel vs kernel cache     *)
(* ------------------------------------------------------------------ *)

(* A service-shaped workload: the modules a floor-planning loop keeps
   re-submitting while it iterates -- a handful of large structural shapes,
   pre-flattened to transistor level, cycled across the batch.  The
   repetition of (rows, degree) pairs is exactly what the kernel cache
   exploits; flattening happens here, outside the timed region, the way a
   long-lived estimation service would hold parsed netlists.  Deterministic
   so that every run times the same batch. *)
let engine_workload ~modules =
  let flat g = Mae_workload.Bench_circuits.flatten g in
  let shapes =
    [|
      flat (Mae_workload.Generators.multiplier 6);
      flat (Mae_workload.Generators.multiplier 7);
      flat (Mae_workload.Generators.multiplier 8);
      flat (Mae_workload.Generators.alu 8);
      flat (Mae_workload.Generators.counter 16);
      flat (Mae_workload.Generators.ripple_adder 16);
      Mae_workload.Generators.inverter_chain 200;
      Mae_workload.Generators.pass_chain 300;
    |]
  in
  List.init modules (fun i -> shapes.(i mod Array.length shapes))

type engine_run = {
  label : string;
  jobs : int;
  cache : bool;
  stats : Mae_engine.stats;
  gc_p99_s : float option;  (* this run's own p99 pause; lens on only *)
  alloc_words_per_module : float option;
      (* minor words the calling domain allocated per module; jobs = 1
         only, where that domain does all the work *)
}

let time_engine ?pool ~label ~jobs ~cache ~registry circuits =
  Mae_prob.Kernel_cache.clear ();
  Mae_prob.Kernel_cache.set_enabled cache;
  let ((results, stats), words), gc_p99_s =
    Bench_history.History.with_own_gc_p99 (fun () ->
        let w0 = Gc.minor_words () in
        let run =
          Mae_engine.run_circuits_with_stats ?pool ~jobs ~registry circuits
        in
        (run, Gc.minor_words () -. w0))
  in
  Mae_prob.Kernel_cache.set_enabled true;
  let alloc_words_per_module =
    if jobs = 1 && stats.modules > 0 then
      Some (words /. Float.of_int stats.modules)
    else None
  in
  (results, { label; jobs; cache; stats; gc_p99_s; alloc_words_per_module })

let modules_per_s (r : engine_run) =
  if r.stats.elapsed_s > 0. then
    Float.of_int r.stats.modules /. r.stats.elapsed_s
  else 0.

let engine_json ~modules ~runs ~path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"workload_modules\": %d,\n" modules);
  Buffer.add_string buf
    (Printf.sprintf "  \"host_recommended_domains\": %d,\n"
       (Mae_engine.default_jobs ()));
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"label\": %S, \"jobs\": %d, \"cache\": %b, \"elapsed_s\": \
            %.6f, \"modules_per_s\": %.1f, \"ok\": %d, \"failed\": %d, \
            \"cache_hits\": %d, \"cache_misses\": %d}%s\n"
           r.label r.jobs r.cache r.stats.elapsed_s (modules_per_s r)
           r.stats.ok r.stats.failed r.stats.cache_hits r.stats.cache_misses
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  ],\n";
  let find label = List.find_opt (fun r -> String.equal r.label label) runs in
  let speedup a b =
    match (find a, find b) with
    | Some a, Some b when a.stats.elapsed_s > 0. ->
        b.stats.elapsed_s /. a.stats.elapsed_s
    | _ -> 0.
  in
  Buffer.add_string buf "  \"speedups\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"cached_seq_vs_uncached_seq\": %.3f,\n"
       (speedup "seq_cached" "seq_uncached"));
  Buffer.add_string buf
    (Printf.sprintf "    \"parallel8_vs_seq_cached\": %.3f,\n"
       (speedup "par8_cached" "seq_cached"));
  Buffer.add_string buf
    (Printf.sprintf "    \"parallel8_vs_uncached_seq\": %.3f\n"
       (speedup "par8_cached" "seq_uncached"));
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* Ceiling on [Obj.reachable_words] of the estimate store per entry
   after the smoke workload: an entry measures ~560 words when it keeps
   only results and counts, and ~16k when it pins whole module reports
   (circuit and expansion included). *)
let max_retained_words_per_entry = 1200.

let run_engine ~smoke () =
  let modules = if smoke then 48 else 500 in
  section
    (Printf.sprintf
       "Batch engine: %d-module throughput (sequential / cached / parallel)"
       modules);
  let circuits = engine_workload ~modules in
  let registry = Mae_tech.Registry.create () in
  (* the runtime lens rides the whole bench so every run in the history
     entry carries its own p99 pause next to its throughput ([time_engine]
     zeroes the lens before each run); it does not require telemetry, so
     the measured spans stay unchanged *)
  ignore (Mae_obs.Runtime.start ());
  let parallel_jobs = if smoke then [ 2 ] else [ 2; 4; 8 ] in
  let baseline_results, seq_uncached =
    time_engine ~label:"seq_uncached" ~jobs:1 ~cache:false ~registry circuits
  in
  let _, seq_cached =
    time_engine ~label:"seq_cached" ~jobs:1 ~cache:true ~registry circuits
  in
  (* one persistent pool sized for the widest run: every parallel pass
     reuses its domains, so the numbers measure scheduling, not
     Domain.spawn *)
  let max_jobs = List.fold_left Stdlib.max 1 parallel_jobs in
  let pool =
    if max_jobs >= 2 then Some (Mae_engine.Pool.create ~domains:(max_jobs - 1))
    else None
  in
  let par_runs =
    List.map
      (fun jobs ->
        let results, run =
          time_engine ?pool
            ~label:(Printf.sprintf "par%d_cached" jobs)
            ~jobs ~cache:true ~registry circuits
        in
        (* determinism cross-check: the parallel run must reproduce the
           sequential baseline slot for slot. *)
        let agree =
          List.for_all2
            (fun a b ->
              match (a, b) with
              | Ok (ra : Mae.Driver.module_report), Ok (rb : Mae.Driver.module_report) ->
                  let areas (r : Mae.Driver.module_report) =
                    List.map
                      (fun (mr : Mae.Driver.method_result) ->
                        match mr.outcome with
                        | Ok o -> (Mae.Methodology.dims o).Mae.Methodology.area
                        | Error _ -> Float.nan)
                      r.results
                  in
                  List.for_all2
                    (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                    (areas ra) (areas rb)
              | Error _, Error _ -> true
              | _ -> false)
            baseline_results results
        in
        if not agree then
          Printf.printf "WARNING: par%d results differ from sequential!\n" jobs;
        run)
      parallel_jobs
  in
  Option.iter Mae_engine.Pool.shutdown pool;
  let runs = (seq_uncached :: seq_cached :: par_runs) in
  let t =
    Table.create
      ~columns:
        [
          ("run", Table.Left);
          ("jobs", Table.Right);
          ("cache", Table.Left);
          ("time (s)", Table.Right);
          ("modules/s", Table.Right);
          ("hits", Table.Right);
          ("misses", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.label;
          string_of_int r.jobs;
          (if r.cache then "on" else "off");
          Printf.sprintf "%.3f" r.stats.elapsed_s;
          Printf.sprintf "%.0f" (modules_per_s r);
          string_of_int r.stats.cache_hits;
          string_of_int r.stats.cache_misses;
        ])
    runs;
  Table.print t;
  let ratio a b =
    if b.stats.elapsed_s > 0. then a.stats.elapsed_s /. b.stats.elapsed_s
    else 0.
  in
  Printf.printf
    "kernel cache: sequential %.2fx faster than uncached; host offers %d\n\
     domain(s), so parallel speedup here is bounded by the hardware (the\n\
     pool itself is exercised above and cross-checked against jobs=1).\n"
    (ratio seq_uncached seq_cached)
    (Mae_engine.default_jobs ());
  let path = "BENCH_engine.json" in
  engine_json ~modules ~runs ~path;
  Printf.printf "throughput baseline written to %s\n" path;
  (* the content-addressed estimate store: run the batch cold, then
     repeat it -- the repeat must be answered entirely from the store
     with bit-identical results, or the bench fails *)
  let cas = Mae_db.Cas.create () in
  let cold_results, cold_stats =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache:cas ~registry circuits
  in
  let warm_results, warm_stats =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache:cas ~registry circuits
  in
  let store_hit_ratio =
    if modules > 0 then
      Float.of_int warm_stats.Mae_engine.store_hits /. Float.of_int modules
    else 0.
  in
  if warm_stats.Mae_engine.store_hits <> modules then begin
    Printf.printf
      "FAIL: repeat batch hit the estimate store %d/%d times (want 100%%)\n"
      warm_stats.Mae_engine.store_hits modules;
    exit 1
  end;
  let store_identical =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | Ok (ra : Mae.Driver.module_report), Ok rb ->
            let bits (r : Mae.Driver.module_report) =
              List.map
                (fun (mr : Mae.Driver.method_result) ->
                  match mr.outcome with
                  | Ok o ->
                      Int64.bits_of_float (Mae.Methodology.dims o).Mae.Methodology.area
                  | Error _ -> 0L)
                r.results
            in
            bits ra = bits rb
        | Error _, Error _ -> true
        | _ -> false)
      cold_results warm_results
  in
  if not store_identical then begin
    print_endline "FAIL: estimate-store answers differ from the computed runs";
    exit 1
  end;
  Printf.printf
    "estimate store: cold %.3fs (%d misses), repeat %.3fs answered 100%%\n\
     from the store, bit-identical\n"
    cold_stats.Mae_engine.elapsed_s cold_stats.Mae_engine.store_misses
    warm_stats.Mae_engine.elapsed_s;
  let retained_words_per_entry =
    Float.of_int (Obj.reachable_words (Obj.repr cas))
    /. Float.of_int (Stdlib.max 1 (Mae_db.Cas.length cas))
  in
  Printf.printf "estimate store: %.0f words retained per entry\n"
    retained_words_per_entry;
  if retained_words_per_entry > max_retained_words_per_entry then begin
    Printf.printf
      "FAIL: the estimate store retains %.0f words per entry (ceiling %.0f):\n\
       an entry must keep results, not the circuits they came from\n"
      retained_words_per_entry max_retained_words_per_entry;
    exit 1
  end;
  (* drain the cursor so the history entry's gc object sees the run; its
     pause fields cover what ran since the last per-run reset (the last
     parallel run and the store passes) *)
  Mae_obs.Runtime.stop ();
  (* one timestamped line per bench run, appended so the trajectory
     across commits survives BENCH_engine.json being overwritten *)
  let open Mae_obs.Json in
  Bench_history.History.append ~source:"bench_engine"
    [
      ("smoke", Bool smoke);
      ("workload_modules", Number (Float.of_int modules));
      ( "host_recommended_domains",
        Number (Float.of_int (Mae_engine.default_jobs ())) );
      ( "runs",
        Array
          (List.map
             (fun r ->
               Object
                 ([
                   ("label", String r.label);
                   ("jobs", Number (Float.of_int r.jobs));
                   ("cache", Bool r.cache);
                   ("elapsed_s", Number r.stats.elapsed_s);
                   ("modules_per_s", Number (modules_per_s r));
                   ("cache_hits", Number (Float.of_int r.stats.cache_hits));
                   ("cache_misses", Number (Float.of_int r.stats.cache_misses));
                 ]
                 @ (match r.gc_p99_s with
                   | Some p99 -> [ ("gc_p99_pause_s", Number p99) ]
                   | None -> [])
                 @
                 match r.alloc_words_per_module with
                 | Some w -> [ ("alloc_words_per_module", Number w) ]
                 | None -> []))
             runs) );
      ( "estimate_store",
        Object
          [
            ("cold_elapsed_s", Number cold_stats.Mae_engine.elapsed_s);
            ("warm_elapsed_s", Number warm_stats.Mae_engine.elapsed_s);
            ( "cold_misses",
              Number (Float.of_int cold_stats.Mae_engine.store_misses) );
            ( "warm_hits",
              Number (Float.of_int warm_stats.Mae_engine.store_hits) );
            ("warm_hit_ratio", Number store_hit_ratio);
            ("warm_bit_identical", Bool store_identical);
            ("retained_words_per_entry", Number retained_words_per_entry);
          ] );
    ]

(* --gc-sweep: one row per jobs level -- cached throughput with the
   runtime lens riding along, against the pooled GC pause quantiles the
   lens observed during that run ([time_engine] zeroes the lens first).  Feeds the EXPERIMENTS.md "GC pauses
   vs parallelism" table. *)
let run_gc_sweep ~smoke () =
  let modules = if smoke then 48 else 500 in
  section
    (Printf.sprintf
       "GC pauses vs --jobs throughput (%d modules, kernel cache on)" modules);
  let circuits = engine_workload ~modules in
  let registry = Mae_tech.Registry.create () in
  let t =
    Table.create
      ~columns:
        [
          ("jobs", Table.Right);
          ("modules/s", Table.Right);
          ("pauses", Table.Right);
          ("p50 (us)", Table.Right);
          ("p99 (us)", Table.Right);
          ("max (us)", Table.Right);
          ("gc total (ms)", Table.Right);
        ]
  in
  List.iter
    (fun jobs ->
      ignore (Mae_obs.Runtime.start ());
      let pool =
        if jobs >= 2 then Some (Mae_engine.Pool.create ~domains:(jobs - 1))
        else None
      in
      let _, run =
        time_engine ?pool
          ~label:(Printf.sprintf "gc%d" jobs)
          ~jobs ~cache:true ~registry circuits
      in
      Option.iter Mae_engine.Pool.shutdown pool;
      Mae_obs.Runtime.stop ();
      let us = Printf.sprintf "%.0f" in
      let q p =
        match Mae_obs.Runtime.pause_quantile p with
        | Some v -> us (v *. 1e6)
        | None -> "-"
      in
      let total_s =
        List.fold_left
          (fun acc d -> acc +. d.Mae_obs.Runtime.d_pause_total_s)
          0.
          (Mae_obs.Runtime.domains ())
      in
      Table.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.0f" (modules_per_s run);
          string_of_int (Mae_obs.Runtime.pause_count ());
          q 0.5;
          q 0.99;
          (match Mae_obs.Runtime.max_pause_seconds () with
          | Some v -> us (v *. 1e6)
          | None -> "-");
          Printf.sprintf "%.1f" (total_s *. 1e3);
        ])
    [ 1; 2; 4; 8 ];
  Table.print t

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let engine_only = List.mem "--engine-only" args in
  let gc_sweep = List.mem "--gc-sweep" args in
  let smoke = List.mem "--smoke" args in
  if gc_sweep then run_gc_sweep ~smoke ()
  else if engine_only then run_engine ~smoke ()
  else begin
    print_endline
      "Reproduction of: Chen & Bushnell, \"A Module Area Estimator for VLSI\n\
       Layout\", 25th DAC, 1988.  Substrates are described in DESIGN.md;\n\
       paper-vs-measured discussion lives in EXPERIMENTS.md.";
    run_table1 ();
    run_table2 ();
    run_figure1 ();
    run_central_row ();
    run_ablation_sharing ();
    run_ablation_row_model ();
    run_floorplan_iterations ();
    run_scaling ();
    run_baselines ();
    run_robustness ();
    run_methodologies ();
    run_routing_check ();
    run_timings ();
    run_engine ~smoke ();
    print_newline ();
    print_endline "done."
  end

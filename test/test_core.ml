module S = Mae_test_support.Support

(* Row model: equations (2)-(3) *)

let test_row_model_normalizes () =
  List.iter
    (fun (rows, degree) ->
      List.iter
        (fun model ->
          let d = Mae.Row_model.prob_rows ~model ~rows ~degree in
          S.check_float ~eps:1e-9
            (Printf.sprintf "mass n=%d D=%d" rows degree)
            0.
            (Mae_prob.Dist.total_mass_error d))
        [ Mae.Config.Paper_model; Mae.Config.Exact_occupancy ])
    [ (1, 1); (1, 5); (3, 2); (4, 4); (5, 9); (10, 3) ]

let test_row_model_matches_exact_when_rows_ge_degree () =
  (* The paper's k = min(n, D) heuristic is exact whenever n >= D. *)
  for rows = 1 to 8 do
    for degree = 1 to rows do
      let p = Mae.Row_model.prob_rows ~model:Mae.Config.Paper_model ~rows ~degree in
      let e =
        Mae.Row_model.prob_rows ~model:Mae.Config.Exact_occupancy ~rows ~degree
      in
      for i = 1 to degree do
        S.check_float ~eps:1e-9
          (Printf.sprintf "P(%d) n=%d D=%d" i rows degree)
          (Mae_prob.Dist.prob e i) (Mae_prob.Dist.prob p i)
      done
    done
  done

let test_row_model_known_values () =
  (* D=2, n=4: P(1 row) = 4*2/16... occupancy: P(1)=C(4,1)*1/16=0.25,
     P(2)=C(4,2)*2/16=0.75 *)
  let d = Mae.Row_model.prob_rows ~model:Mae.Config.Paper_model ~rows:4 ~degree:2 in
  S.check_float "P(1)" 0.25 (Mae_prob.Dist.prob d 1);
  S.check_float "P(2)" 0.75 (Mae_prob.Dist.prob d 2)

let test_row_model_single_row () =
  let d = Mae.Row_model.prob_rows ~model:Mae.Config.Paper_model ~rows:1 ~degree:7 in
  S.check_float "P(1)=1" 1. (Mae_prob.Dist.prob d 1);
  Alcotest.(check int) "span 1" 1
    (Mae.Row_model.expected_span ~model:Mae.Config.Paper_model ~rows:1 ~degree:7)

(* Past min(n, D) = 30 the old inclusion-exclusion sums cancelled:
   the paper's model raised on a negative weight and the exact model
   clamped the cancellation to 0 and rounded to the wrong integer.  The
   true ceilings are those of n (1 - (1 - 1/n)^balls): 35 (1 - (34/35)^35)
   = 22.31 and 155 (1 - (154/155)^32) = 28.94. *)
let test_expected_span_wide_keys () =
  Alcotest.(check int) "paper n=35 D=35" 23
    (Mae.Row_model.expected_span ~model:Mae.Config.Paper_model ~rows:35
       ~degree:35);
  Alcotest.(check int) "exact n=155 D=32" 29
    (Mae.Row_model.expected_span ~model:Mae.Config.Exact_occupancy ~rows:155
       ~degree:32);
  Alcotest.(check int) "exact n=35 D=200" 35
    (Mae.Row_model.expected_span ~model:Mae.Config.Exact_occupancy ~rows:35
       ~degree:200)

let test_expected_span_monotone_in_degree () =
  let rows = 6 in
  let spans =
    List.init 10 (fun i ->
        Mae.Row_model.expected_span ~model:Mae.Config.Paper_model ~rows
          ~degree:(i + 1))
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "non-decreasing" true (a <= b);
        check rest
    | [ _ ] | [] -> ()
  in
  check spans

(* the paper's "expectation value of the total number of tracks": the
   track classes' tracks summed *)
let total_tracks ~model ~rows ~degree_histogram =
  List.fold_left
    (fun acc (c : Mae.Row_model.track_class) -> acc + c.tracks)
    0
    (Mae.Row_model.track_classes ~model ~rows ~degree_histogram)

let test_tracks_for_histogram () =
  let model = Mae.Config.Paper_model in
  let span d = Mae.Row_model.expected_span ~model ~rows:4 ~degree:d in
  Alcotest.(check int) "weighted sum"
    ((3 * span 2) + (2 * span 5))
    (total_tracks ~model ~rows:4
       ~degree_histogram:[ (2, 3); (5, 2) ]);
  Alcotest.(check int) "zero counts skipped" 0
    (total_tracks ~model ~rows:4 ~degree_histogram:[ (2, 0) ]);
  S.raises_invalid (fun () ->
      ignore
        (total_tracks ~model ~rows:4
           ~degree_histogram:[ (2, -1) ]))

(* Feedthrough: equations (4)-(11) *)

let test_feedthrough_eq5_equals_closed_form () =
  for rows = 1 to 9 do
    for degree = 1 to 8 do
      for row = 1 to rows do
        S.check_float ~eps:1e-9
          (Printf.sprintf "n=%d D=%d i=%d" rows degree row)
          (Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row)
          (Mae.Feedthrough.prob_in_row ~rows ~degree ~row)
      done
    done
  done

(* Satellite of the differential-harness PR: the double sum of
   equation (5) and its closed form must agree to 1e-10 over the whole
   grid the estimators can reach, including the degenerate degree = 1
   and the boundary rows where the alternating closed form nearly
   cancels. The older random property above only sampled the grid at a
   looser 1e-9. *)
let test_feedthrough_eq5_exhaustive_grid () =
  for rows = 1 to 32 do
    for degree = 1 to 16 do
      List.iter
        (fun row ->
          let a = Mae.Feedthrough.prob_in_row ~rows ~degree ~row in
          let b = Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row in
          if Float.abs (a -. b) > 1e-10 then
            Alcotest.failf "n=%d D=%d i=%d: sum %.17g closed %.17g" rows degree
              row a b)
        (List.sort_uniq Int.compare
           [ 1; 2; (rows + 1) / 2; rows - 1; rows ]
        |> List.filter (fun r -> r >= 1 && r <= rows))
    done
  done;
  (* plus the full row range on a denser low grid *)
  for rows = 1 to 12 do
    for degree = 1 to 16 do
      for row = 1 to rows do
        let a = Mae.Feedthrough.prob_in_row ~rows ~degree ~row in
        let b = Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row in
        if Float.abs (a -. b) > 1e-10 then
          Alcotest.failf "n=%d D=%d i=%d: sum %.17g closed %.17g" rows degree
            row a b
      done
    done
  done

(* Regression: the closed form's alternating sum left a one-ulp
   *negative* residual at boundary rows (the harness shrank the
   disagreement to n=5 D=1 and n=3 D=2), and probabilities must never
   leave [0, 1]. *)
let test_feedthrough_closed_form_clamped () =
  (* the shrunk reproducers from the differential harness *)
  let p51 = Mae.Feedthrough.prob_in_row_closed ~rows:5 ~degree:1 ~row:5 in
  Alcotest.(check bool) "n=5 D=1 i=5 >= 0" true (p51 >= 0.);
  S.check_float ~eps:1e-15 "n=5 D=1 i=5 ~ 0" 0. p51;
  let p32 = Mae.Feedthrough.prob_in_row_closed ~rows:3 ~degree:2 ~row:3 in
  Alcotest.(check bool) "n=3 D=2 i=3 >= 0" true (p32 >= 0.);
  (* and globally: every probability the closed form can produce *)
  for rows = 1 to 16 do
    for degree = 1 to 10 do
      for row = 1 to rows do
        let p = Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row in
        if p < 0. || p > 1. then
          Alcotest.failf "n=%d D=%d i=%d: %.17g outside [0,1]" rows degree row p
      done;
      let pc = Mae.Feedthrough.prob_central ~rows ~degree in
      if pc < 0. || pc > 1. then
        Alcotest.failf "central n=%d D=%d: %.17g outside [0,1]" rows degree pc
    done
  done

(* Regression: on an even row count the two central rows have exactly
   symmetric probabilities; argmax_row must resolve the tie to the
   *lower* one (with the 1e-15 tolerance it shares with
   [Montecarlo.argmax_feed_through]), never drift to the upper row on
   rounding noise. *)
let test_feedthrough_argmax_tie_even_odd () =
  for half = 1 to 8 do
    let rows = 2 * half in
    for degree = 2 to 8 do
      (* the two central rows are tied by symmetry up to the one-ulp
         noise of the subtraction order -- precisely the gap the shared
         1e-15 tolerance must absorb *)
      S.check_float ~eps:1e-15 "central pair tied"
        (Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row:half)
        (Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row:(half + 1));
      Alcotest.(check int)
        (Printf.sprintf "even n=%d D=%d picks lower" rows degree)
        half
        (Mae.Feedthrough.argmax_row ~rows ~degree)
    done
  done;
  for half = 1 to 8 do
    let rows = (2 * half) + 1 in
    for degree = 2 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "odd n=%d D=%d picks center" rows degree)
        (half + 1)
        (Mae.Feedthrough.argmax_row ~rows ~degree)
    done
  done

let test_feedthrough_symmetry () =
  (* P(i) = P(n+1-i): top and bottom are interchangeable *)
  let rows = 8 and degree = 4 in
  for row = 1 to rows do
    S.check_float ~eps:1e-12 "symmetric"
      (Mae.Feedthrough.prob_in_row ~rows ~degree ~row)
      (Mae.Feedthrough.prob_in_row ~rows ~degree ~row:(rows + 1 - row))
  done

let test_feedthrough_edge_rows_zero () =
  (* "generally neither the top row nor the bottom row have feed-throughs" *)
  for degree = 1 to 6 do
    S.check_float ~eps:1e-12 "top" 0.
      (Mae.Feedthrough.prob_in_row ~rows:5 ~degree ~row:1);
    S.check_float ~eps:1e-12 "bottom" 0.
      (Mae.Feedthrough.prob_in_row ~rows:5 ~degree ~row:5)
  done

let test_feedthrough_central_argmax () =
  (* The paper's claim, verified over a grid: the central row always has
     the largest probability regardless of D. *)
  for rows = 3 to 15 do
    for degree = 2 to 10 do
      let best = Mae.Feedthrough.argmax_row ~rows ~degree in
      let central_lo = (rows + 1) / 2 and central_hi = (rows + 2) / 2 in
      if best < central_lo || best > central_hi then
        Alcotest.failf "rows=%d degree=%d: argmax %d" rows degree best
    done
  done

let test_feedthrough_equation_nine () =
  (* p = ((n-1)/n)^2 / 2 *)
  S.check_float "n=1" 0. (Mae.Feedthrough.prob_two_component ~rows:1);
  S.check_float "n=2" 0.125 (Mae.Feedthrough.prob_two_component ~rows:2);
  S.check_float "n=5" 0.32 (Mae.Feedthrough.prob_two_component ~rows:5);
  (* the limit claimed in equation (9) *)
  S.check_close ~rel:1e-3 "limit 0.5" 0.5
    (Mae.Feedthrough.prob_two_component ~rows:100000)

let test_feedthrough_eq9_matches_eq8_for_two_components () =
  (* For D=2 the general central-row formula reduces to equation (9). *)
  List.iter
    (fun rows ->
      S.check_float ~eps:1e-12
        (Printf.sprintf "n=%d" rows)
        (Mae.Feedthrough.prob_two_component ~rows)
        (Mae.Feedthrough.prob_central ~rows ~degree:2))
    [ 1; 3; 5; 7; 9; 11 ]

let test_expected_feed_throughs () =
  (* E(M) = ceil(H * p) by the binomial mean *)
  let rows = 5 in
  let p = Mae.Feedthrough.prob_two_component ~rows in
  List.iter
    (fun h ->
      Alcotest.(check int)
        (Printf.sprintf "H=%d" h)
        (Float.to_int (Float.ceil ((Float.of_int h *. p) -. 1e-9)))
        (Mae.Feedthrough.expected_feed_throughs ~net_count:h ~rows))
    [ 0; 1; 5; 17; 40 ];
  Alcotest.(check int) "no nets" 0
    (Mae.Feedthrough.expected_feed_throughs ~net_count:0 ~rows:4);
  Alcotest.(check int) "single row never needs feeds" 0
    (Mae.Feedthrough.expected_feed_throughs ~net_count:50 ~rows:1)

let test_feedthrough_stationary_point () =
  (* equations (6)-(7): the derivative of P(i) w.r.t. the row position
     vanishes at the central row; checked numerically via the closed form
     extended to real-valued positions *)
  List.iter
    (fun (rows, degree) ->
      let n = Float.of_int rows in
      let p pos =
        (* the closed form of equation (5) at a real-valued row position *)
        let not_above = (n -. pos +. 1.) /. n in
        let not_below = pos /. n in
        1.
        -. (not_above ** Float.of_int degree)
        -. (not_below ** Float.of_int degree)
        +. ((1. /. n) ** Float.of_int degree)
      in
      let center = Mae.Feedthrough.central_row ~rows in
      let h = 1e-5 in
      let derivative = (p (center +. h) -. p (center -. h)) /. (2. *. h) in
      if Float.abs derivative > 1e-6 then
        Alcotest.failf "n=%d D=%d: dP/di at center = %g" rows degree derivative;
      (* and it is a maximum: second difference negative *)
      let second = p (center +. 0.1) +. p (center -. 0.1) -. (2. *. p center) in
      Alcotest.(check bool) "maximum" true (second < 0.))
    [ (3, 2); (5, 2); (5, 4); (7, 3); (9, 6); (11, 2) ]

(* Stdcell: equations (1), (12), (14) *)

let test_stdcell_equation_twelve_arithmetic () =
  let rows = 3 in
  let est = Mae.Stdcell.estimate ~rows S.counter8 S.nmos in
  let stats = Mae_netlist.Stats.compute S.counter8 S.nmos in
  (* reconstruct each factor by hand *)
  let tracks =
    total_tracks ~model:Mae.Config.Paper_model ~rows
      ~degree_histogram:stats.Mae_netlist.Stats.degree_histogram
  in
  Alcotest.(check int) "tracks" tracks est.Mae.Estimate.tracks;
  let connected =
    List.fold_left (fun acc (_, y) -> acc + y) 0
      stats.Mae_netlist.Stats.degree_histogram
  in
  let feeds = Mae.Feedthrough.expected_feed_throughs ~net_count:connected ~rows in
  Alcotest.(check int) "feeds" feeds est.feed_throughs;
  let height = (3. *. 40.) +. (Float.of_int tracks *. 7.) in
  S.check_float "height" height est.height;
  let width =
    (Float.of_int stats.Mae_netlist.Stats.device_count
     *. stats.Mae_netlist.Stats.average_width /. 3.)
    +. (Float.of_int feeds *. 7.)
  in
  S.check_float "width" width est.width;
  S.check_float "area = h*w" (height *. width) est.area;
  Alcotest.(check bool) "area check helper" true (Mae.Estimate.stdcell_area_check est);
  (* equation 14: aspect = width / height before clamping *)
  S.check_float "aspect raw" (width /. height)
    (Mae_geom.Aspect.ratio est.aspect_raw)

let test_stdcell_aspect_clamped () =
  let est = Mae.Stdcell.estimate ~rows:3 S.counter8 S.nmos in
  let r = Mae_geom.Aspect.ratio est.Mae.Estimate.aspect in
  let n = if r > 1. then r else 1. /. r in
  Alcotest.(check bool) "within 1..2 band" true (n >= 1. -. 1e-9 && n <= 2. +. 1e-9);
  (* with the raw config nothing is clamped *)
  let raw =
    Mae.Stdcell.estimate ~config:Mae.Config.paper_raw ~rows:3 S.counter8 S.nmos
  in
  S.check_float "raw aspect = eq 14"
    (Mae_geom.Aspect.ratio raw.Mae.Estimate.aspect_raw)
    (Mae_geom.Aspect.ratio raw.Mae.Estimate.aspect)

let test_stdcell_monotone_in_circuit_growth () =
  (* duplicating the circuit cannot shrink the estimate *)
  let small = Mae.Stdcell.estimate ~rows:4 S.counter8 S.nmos in
  let doubled = Mae_workload.Mutate.duplicate S.counter8 in
  let big = Mae.Stdcell.estimate ~rows:4 doubled S.nmos in
  Alcotest.(check bool) "bigger circuit bigger area" true
    (big.Mae.Estimate.area > small.Mae.Estimate.area)

let test_stdcell_track_sharing_config () =
  let base = Mae.Stdcell.estimate ~rows:4 S.counter8 S.nmos in
  let shared = Mae.Extensions.with_track_sharing ~factor:0.5 ~rows:4 S.counter8 S.nmos in
  Alcotest.(check int) "half the tracks (ceil)"
    ((base.Mae.Estimate.tracks + 1) / 2)
    shared.Mae.Estimate.tracks;
  Alcotest.(check bool) "smaller area" true
    (shared.Mae.Estimate.area < base.Mae.Estimate.area);
  S.raises_invalid (fun () ->
      ignore (Mae.Extensions.with_track_sharing ~factor:1.5 ~rows:4 S.counter8 S.nmos))

let test_stdcell_validation () =
  S.raises_invalid (fun () -> ignore (Mae.Stdcell.estimate ~rows:0 S.counter8 S.nmos));
  let empty =
    Mae_netlist.Builder.build
      (Mae_netlist.Builder.create ~name:"e" ~technology:"nmos25")
  in
  S.raises_invalid (fun () -> ignore (Mae.Stdcell.estimate ~rows:1 empty S.nmos))

(* Row selection: section 5 *)

let test_rows_for_divisor () =
  Alcotest.(check int) "sqrt(160000)/(2*40) = 5" 5
    (Mae.Row_select.rows_for_divisor ~cell_area:160000. ~row_height:40. ~divisor:2);
  Alcotest.(check int) "floors at 1" 1
    (Mae.Row_select.rows_for_divisor ~cell_area:100. ~row_height:40. ~divisor:9);
  S.raises_invalid (fun () ->
      ignore (Mae.Row_select.rows_for_divisor ~cell_area:0. ~row_height:40. ~divisor:2))

let test_row_length () =
  S.check_float "area / (n*rh)" 100.
    (Mae.Row_select.row_length ~cell_area:8000. ~row_height:40. ~rows:2)

let test_initial_rows_port_constraint () =
  (* initial_rows must produce a row long enough for all ports *)
  List.iter
    (fun circuit ->
      let rows = Mae.Row_select.initial_rows circuit S.nmos in
      let stats = Mae_netlist.Stats.compute circuit S.nmos in
      let length =
        Mae.Row_select.row_length
          ~cell_area:stats.Mae_netlist.Stats.total_device_area ~row_height:40.
          ~rows
      in
      let ports =
        Float.of_int stats.Mae_netlist.Stats.port_count *. 8.
      in
      Alcotest.(check bool)
        (circuit.Mae_netlist.Circuit.name ^ " ports fit")
        true
        (length >= ports || rows = 1))
    [ S.counter8; S.full_adder; Mae_workload.Generators.alu 4 ]

let test_row_candidates () =
  let candidates = Mae.Row_select.candidates ~max_count:3 S.counter8 S.nmos in
  Alcotest.(check bool) "non-empty" true (candidates <> []);
  Alcotest.(check bool) "strictly decreasing" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a > b && ok rest
       | [ _ ] | [] -> true
     in
     ok candidates);
  Alcotest.(check bool) "at most 3" true (List.length candidates <= 3);
  S.raises_invalid (fun () ->
      ignore (Mae.Row_select.candidates ~max_count:0 S.counter8 S.nmos))

(* Full custom: equation (13) *)

let test_fullcustom_two_component_free () =
  (* the Table 1 footnote: a module of only <=2-component nets has zero
     wire area, so estimated area = device area *)
  let chain = Mae_workload.Generators.pass_chain 8 in
  let est = Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas chain S.nmos in
  S.check_float "wire area 0" 0. est.Mae.Estimate.wire_area;
  let stats = Mae_netlist.Stats.compute chain S.nmos in
  S.check_float "device area only" stats.Mae_netlist.Stats.total_device_area
    est.Mae.Estimate.area

let test_fullcustom_strict_mode_charges_pairs () =
  let chain = Mae_workload.Generators.pass_chain 8 in
  let config = { Mae.Config.default with two_component_free = false } in
  let est = Mae.Fullcustom.estimate ~config ~mode:Mae.Config.Exact_areas chain S.nmos in
  Alcotest.(check bool) "strict charges pairs" true
    (est.Mae.Estimate.wire_area > 0.)

let test_fullcustom_net_areas () =
  let tx = S.full_adder_tx in
  let nets = Mae.Fullcustom.net_areas ~mode:Mae.Config.Exact_areas tx S.nmos in
  Alcotest.(check int) "one entry per net"
    (Mae_netlist.Circuit.net_count tx)
    (List.length nets);
  List.iter
    (fun (n : Mae.Fullcustom.net_area) ->
      if n.degree <= 2 then S.check_float "free" 0. n.interconnect_area
      else begin
        (* A_j = track_pitch * ceil(D/2) * mean member width (all 4L here) *)
        let expected = 7. *. (Float.of_int ((n.degree + 1) / 2) *. 4.) in
        S.check_float "charged" expected n.interconnect_area
      end)
    nets

let test_fullcustom_exact_equals_average_for_uniform_widths () =
  (* all transistors in the expanded adder are 4L wide, so both modes
     coincide *)
  let exact, average = Mae.Fullcustom.estimate_both S.full_adder_tx S.nmos in
  S.check_float "same area" exact.Mae.Estimate.area average.Mae.Estimate.area

let test_fullcustom_modes_differ_with_mixed_widths () =
  let b = Mae_netlist.Builder.create ~name:"mixed" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"a" ~kind:"nenh" ~nets:[ "x"; "y"; "z" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"c" ~kind:"nenh_wide" ~nets:[ "x"; "y"; "w" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"d" ~kind:"ndep" ~nets:[ "x"; "q"; "r" ]);
  let c = Mae_netlist.Builder.build b in
  let exact, average = Mae.Fullcustom.estimate_both c S.nmos in
  Alcotest.(check bool) "different device areas" true
    (not (S.approx exact.Mae.Estimate.device_area average.Mae.Estimate.device_area))

let test_fullcustom_aspect_square_when_ports_fit () =
  let est = Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas S.full_adder_tx S.nmos in
  S.check_float "1:1" 1. (Mae_geom.Aspect.ratio est.Mae.Estimate.aspect_raw);
  S.check_float "w = h" est.Mae.Estimate.width est.Mae.Estimate.height

let test_fullcustom_aspect_stretched_by_ports () =
  (* a tiny module with many ports cannot stay square *)
  let b = Mae_netlist.Builder.create ~name:"porty" ~technology:"nmos25" in
  for i = 0 to 19 do
    let n = Printf.sprintf "p%d" i in
    Mae_netlist.Builder.add_port b ~name:n ~direction:Mae_netlist.Port.Input ~net:n
  done;
  ignore
    (Mae_netlist.Builder.add_device b ~name:"t" ~kind:"nenh"
       ~nets:(List.init 20 (Printf.sprintf "p%d")));
  let c = Mae_netlist.Builder.build b in
  let est = Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas c S.nmos in
  (* width must equal the port length 20 * 8 = 160 *)
  S.check_float "width = port length" 160. est.Mae.Estimate.width;
  Alcotest.(check bool) "wider than tall" true
    (est.Mae.Estimate.width > est.Mae.Estimate.height)

(* Aspect ratio helpers *)

let test_aspect_clamp_band () =
  let config = Mae.Config.default in
  let clamp r =
    Mae_geom.Aspect.ratio (Mae.Aspect_ratio.clamp config (Mae_geom.Aspect.of_ratio r))
  in
  S.check_float "in band unchanged" 1.5 (clamp 1.5);
  S.check_float "above band" 2. (clamp 3.7);
  S.check_float "below band (inverted)" 0.5 (clamp 0.2);
  S.check_float "exactly 1" 1. (clamp 1.)

let test_port_length () =
  S.check_float "ports * pitch" 40.
    (Mae.Aspect_ratio.port_length ~port_count:5 ~process:S.nmos)

(* Extensions *)

let test_aspect_candidates () =
  let candidates =
    Mae.Extensions.fullcustom_aspect_candidates ~area:10000. ~port_count:2 S.nmos
  in
  Alcotest.(check int) "five shapes" 5 (List.length candidates);
  List.iter
    (fun (w, h, _) ->
      S.check_close ~rel:1e-9 "area preserved" 10000. (w *. h);
      let r = w /. h in
      Alcotest.(check bool) "in 1..2" true (r >= 1. -. 1e-9 && r <= 2. +. 1e-9))
    candidates;
  (* infeasible ports keep all candidates rather than none *)
  let crowded =
    Mae.Extensions.fullcustom_aspect_candidates ~area:100. ~port_count:50 S.nmos
  in
  Alcotest.(check int) "all kept" 5 (List.length crowded)

let test_stdcell_shape_candidates () =
  let shapes = Mae.Extensions.stdcell_shape_candidates S.counter8 S.nmos in
  Alcotest.(check bool) "non-empty" true (shapes <> []);
  let rows = List.map (fun (e : Mae.Estimate.stdcell) -> e.rows) shapes in
  Alcotest.(check bool) "distinct row counts" true
    (List.length (List.sort_uniq Int.compare rows) = List.length rows)

let test_calibrate_sharing_factor () =
  Alcotest.(check bool) "empty" true (Mae.Extensions.calibrate_sharing_factor [] = None);
  let est = Mae.Stdcell.estimate ~rows:3 S.counter8 S.nmos in
  begin
    match Mae.Extensions.calibrate_sharing_factor [ (est, est.Mae.Estimate.area /. 2.) ] with
    | Some f -> S.check_float "half" 0.5 f
    | None -> Alcotest.fail "expected factor"
  end;
  match Mae.Extensions.calibrate_sharing_factor [ (est, est.Mae.Estimate.area *. 3.) ] with
  | Some f -> S.check_float "clipped at 1" 1. f
  | None -> Alcotest.fail "expected factor"

(* Gate-array extension *)

let test_gatearray_site_demand () =
  (* counter8: every gate maps through the nMOS templates *)
  match Mae.Gatearray.site_demand S.counter8 S.nmos with
  | Error e -> Alcotest.failf "site demand: %s" e
  | Ok demand ->
      Alcotest.(check bool) "at least one site per device" true
        (demand >= Mae_netlist.Circuit.device_count S.counter8);
      (* a transistor-level circuit costs one site per 4 transistors *)
      let chain = Mae_workload.Generators.pass_chain 8 in
      begin
        match Mae.Gatearray.site_demand chain S.nmos with
        | Ok d -> Alcotest.(check int) "8 tx -> 8 sites (1 each)" 8 d
        | Error e -> Alcotest.failf "chain: %s" e
      end

let test_gatearray_estimate () =
  match Mae.Gatearray.estimate S.counter8 S.nmos with
  | Error e -> Alcotest.failf "estimate: %s" e
  | Ok e ->
      Alcotest.(check bool) "capacity covers demand" true
        (e.Mae.Gatearray.array_rows * e.Mae.Gatearray.array_columns
         >= e.Mae.Gatearray.sites);
      Alcotest.(check bool) "sites cover equivalents with margin" true
        (e.Mae.Gatearray.sites > e.Mae.Gatearray.gate_equivalents);
      S.check_float "area consistent" (e.Mae.Gatearray.width *. e.Mae.Gatearray.height)
        e.Mae.Gatearray.area;
      (* prediffused arrays waste area: bigger than the SC upper bound's
         cell portion *)
      let stats = Mae_netlist.Stats.compute S.counter8 S.nmos in
      Alcotest.(check bool) "bigger than active area" true
        (e.Mae.Gatearray.area > stats.Mae_netlist.Stats.total_device_area)

let test_gatearray_monotone () =
  let small = Result.get_ok (Mae.Gatearray.estimate S.counter8 S.nmos) in
  let doubled = Mae_workload.Mutate.duplicate S.counter8 in
  let big = Result.get_ok (Mae.Gatearray.estimate doubled S.nmos) in
  Alcotest.(check bool) "monotone in size" true
    (big.Mae.Gatearray.area > small.Mae.Gatearray.area)

let test_gatearray_params_validation () =
  let p = Mae.Gatearray.default_params S.nmos in
  Alcotest.(check bool) "default valid" true
    (Result.is_ok (Mae.Gatearray.validate_params p));
  Alcotest.(check bool) "bad utilization" true
    (Result.is_error
       (Mae.Gatearray.validate_params { p with Mae.Gatearray.utilization = 1.5 }));
  Alcotest.(check bool) "bad sites" true
    (Result.is_error
       (Mae.Gatearray.validate_params
          { p with Mae.Gatearray.site_transistors = 0 }));
  (* unknown kind errors cleanly *)
  let b = Mae_netlist.Builder.create ~name:"x" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"quantum" ~nets:[ "a" ]);
  let c = Mae_netlist.Builder.build b in
  Alcotest.(check bool) "unknown kind errors" true
    (Result.is_error (Mae.Gatearray.site_demand c S.nmos))

(* The --verbose ledger at the rows the routable master settled on
   carries that master, bit for bit, and its tracks are the classes'. *)
let test_gatearray_ledger_is_the_estimate () =
  let bits (e : Mae.Gatearray.estimate) =
    [ Int64.of_int e.gate_equivalents; Int64.of_int e.sites;
      Int64.of_int e.array_rows; Int64.of_int e.array_columns;
      Int64.of_int (Bool.to_int e.routable) ]
    @ List.map Int64.bits_of_float
        [ e.width; e.height; e.area; e.expected_tracks_per_channel ]
  in
  List.iter
    (fun (c : Mae_netlist.Circuit.t) ->
      match Mae.Gatearray.estimate_routable c S.nmos with
      | Error e -> Alcotest.failf "%s: %s" c.name e
      | Ok e -> (
          match Mae.Gatearray.ledger ~rows:e.array_rows c S.nmos with
          | Error e -> Alcotest.failf "%s: ledger: %s" c.name e
          | Ok l ->
              Alcotest.(check (list int64)) (c.name ^ ": estimate") (bits e)
                (bits l.estimate);
              Alcotest.(check int) (c.name ^ ": tracks")
                (List.fold_left
                   (fun acc (k : Mae.Row_model.track_class) -> acc + k.tracks)
                   0 l.classes)
                l.tracks))
    [ S.counter8; S.full_adder; Mae_workload.Generators.counter 64;
      Mae_workload.Generators.multiplier 6 ];
  Alcotest.(check bool) "rows < 1" true
    (Result.is_error (Mae.Gatearray.ledger ~rows:0 S.counter8 S.nmos))

let test_gatearray_routability_uses_track_model () =
  match Mae.Gatearray.estimate S.counter8 S.nmos with
  | Error e -> Alcotest.failf "estimate: %s" e
  | Ok e ->
      let stats = Mae_netlist.Stats.compute S.counter8 S.nmos in
      let tracks =
        total_tracks ~model:Mae.Config.Paper_model
          ~rows:e.Mae.Gatearray.array_rows
          ~degree_histogram:stats.Mae_netlist.Stats.degree_histogram
      in
      S.check_float "per-channel expectation"
        (Float.of_int tracks /. Float.of_int e.Mae.Gatearray.array_rows)
        e.Mae.Gatearray.expected_tracks_per_channel

let test_gatearray_routable_master () =
  match Mae.Gatearray.estimate_routable S.counter8 S.nmos with
  | Error e -> Alcotest.failf "routable: %s" e
  | Ok e ->
      Alcotest.(check bool) "routable" true e.Mae.Gatearray.routable;
      let base = Result.get_ok (Mae.Gatearray.estimate S.counter8 S.nmos) in
      Alcotest.(check bool) "no smaller than the squarest array" true
        (e.Mae.Gatearray.array_rows >= base.Mae.Gatearray.array_rows)

let test_gatearray_routable_equals_estimate () =
  (* a circuit that already routes at the squarest array: the master
     search returns the base shape, bit for bit *)
  let base = Result.get_ok (Mae.Gatearray.estimate S.full_adder S.nmos) in
  Alcotest.(check bool) "base routes" true base.Mae.Gatearray.routable;
  let master = Result.get_ok (Mae.Gatearray.estimate_routable S.full_adder S.nmos) in
  Alcotest.(check int) "rows" base.array_rows master.Mae.Gatearray.array_rows;
  Alcotest.(check int) "columns" base.array_columns master.array_columns;
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b))
    [
      ("width", base.width, master.width);
      ("height", base.height, master.height);
      ("area", base.area, master.area);
      ("tracks/channel", base.expected_tracks_per_channel,
        master.expected_tracks_per_channel);
    ]

(* The ledger grid: every Table 1 / Table 2 golden circuit (and Table 2
   row count) x every configuration ablation.  The estimators' ledgers
   must recompose to their estimates bit for bit, so what
   [mae estimate --verbose] prints is what the estimate used. *)

let ledger_configs =
  let d = Mae.Config.default in
  [
    ("default", d);
    ("paper_raw", Mae.Config.paper_raw);
    ("exact occupancy", { d with row_span_model = Mae.Config.Exact_occupancy });
    ("sharing 0.5", { d with track_sharing_factor = Some 0.5 });
    ("sharing 0.8", { d with track_sharing_factor = Some 0.8 });
    ("pairs charged", { d with two_component_free = false });
  ]

let check_bits what expected actual =
  Alcotest.(check int64) what (Int64.bits_of_float expected)
    (Int64.bits_of_float actual)

let stdcell_ledger_case config circuit rows () =
  let process = Mae_tech.Builtin.nmos25 in
  let est = Mae.Stdcell.estimate ~config ~rows circuit process in
  let l = Mae.Stdcell.ledger ~config ~rows circuit process in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 l.Mae.Stdcell.classes in
  let upper = sum (fun c -> c.Mae.Row_model.tracks) in
  Alcotest.(check int) "classes sum to the upper bound" upper l.tracks_upper_bound;
  let tracks =
    match config.Mae.Config.track_sharing_factor with
    | None -> upper
    | Some f -> max 1 (Float.to_int (Float.ceil (Float.of_int upper *. f)))
  in
  Alcotest.(check int) "scaled classes = estimate tracks" est.Mae.Estimate.tracks
    tracks;
  Alcotest.(check int) "ledger tracks" est.tracks l.tracks;
  let feeds =
    Mae.Feedthrough.expected_feed_throughs
      ~net_count:(sum (fun c -> c.Mae.Row_model.net_count))
      ~rows
  in
  Alcotest.(check int) "E(M) over the classes' nets" est.feed_throughs feeds;
  Alcotest.(check int) "ledger feeds" est.feed_throughs l.feed_throughs;
  check_bits "track height = tracks x pitch"
    (Float.of_int tracks *. process.Mae_tech.Process.track_pitch)
    l.track_height;
  check_bits "feed width = E(M) x feed width"
    (Float.of_int feeds *. process.Mae_tech.Process.feed_through_width)
    l.feed_width;
  let height = l.cell_height +. l.track_height in
  let width = l.cell_width +. l.feed_width in
  check_bits "height" est.height height;
  check_bits "width" est.width width;
  check_bits "area" est.area (height *. width)

let fullcustom_ledger_case config circuit mode () =
  let process = Mae_tech.Builtin.nmos25 in
  let est = Mae.Fullcustom.estimate ~config ~mode circuit process in
  let l = Mae.Fullcustom.ledger ~config ~mode circuit process in
  let free, charged =
    List.partition
      (fun (n : Mae.Fullcustom.net_area) -> n.interconnect_area = 0.)
      l.Mae.Fullcustom.nets
  in
  Alcotest.(check int) "charged + free = net_count"
    (Mae_netlist.Circuit.net_count circuit)
    (List.length charged + List.length free);
  let charged_area =
    List.fold_left
      (fun acc (n : Mae.Fullcustom.net_area) -> acc +. n.interconnect_area)
      0. charged
  in
  check_bits "charged areas sum to wire_area" est.Mae.Estimate.wire_area
    charged_area;
  check_bits "ledger wire_area" est.wire_area l.wire_area;
  check_bits "device area" est.device_area l.device_area;
  check_bits "area" est.area (l.device_area +. charged_area)

let ledger_grid =
  (* two groups (the methodology); inside each, one case per
     configuration x circuit x row count or device-area mode *)
  let cases axis run table =
    List.concat_map
      (fun (cname, config) ->
        List.concat_map
          (fun (e : Mae_workload.Bench_circuits.entry) ->
            List.map
              (fun (what, x) ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %s %s" cname e.name what)
                  `Quick (run config e.circuit x))
              axis)
          (table ()))
      ledger_configs
  in
  let stdcell =
    cases
      (List.map (fun n -> (Printf.sprintf "rows %d" n, n)) [ 2; 3; 4 ])
      stdcell_ledger_case Mae_workload.Bench_circuits.table2
  in
  let fullcustom =
    cases
      [ ("exact", Mae.Config.Exact_areas); ("average", Mae.Config.Average_areas) ]
      fullcustom_ledger_case Mae_workload.Bench_circuits.table1
  in
  [ ("ledger sc", stdcell); ("ledger fc", fullcustom) ]

(* Config *)

let test_config_validation () =
  Alcotest.(check bool) "default ok" true
    (Result.is_ok (Mae.Config.validate Mae.Config.default));
  Alcotest.(check bool) "bad factor" true
    (Result.is_error
       (Mae.Config.validate
          { Mae.Config.default with track_sharing_factor = Some 0. }));
  Alcotest.(check bool) "bad clamp" true
    (Result.is_error
       (Mae.Config.validate { Mae.Config.default with aspect_clamp = Some (2., 1.) }))

(* Driver: the Figure 1 pipeline *)

let test_driver_runs_hdl () =
  let registry = Mae_tech.Registry.create () in
  let hdl =
    "module m { technology nmos25; port a in; port y out;\n\
     device i1 inv (a, m); device i2 inv (m, y); }"
  in
  match Mae.Driver.run_string ~registry hdl with
  | Error e -> Alcotest.failf "driver: %s" (Format.asprintf "%a" Mae.Driver.pp_error e)
  | Ok [ report ] ->
      Alcotest.(check string) "module" "m" report.circuit.Mae_netlist.Circuit.name;
      Alcotest.(check bool) "the driver keeps no expansion" true
        (report.expanded = None);
      let sc =
        match Mae.Driver.stdcell report with
        | Some sc -> sc
        | None -> Alcotest.fail "no stdcell result in the default method set"
      in
      let fce =
        match Mae.Driver.fullcustom_exact report with
        | Some fc -> fc
        | None -> Alcotest.fail "no fullcustom-exact result"
      in
      Alcotest.(check bool) "positive sc area" true (sc.Mae.Estimate.area > 0.);
      Alcotest.(check bool) "positive fc area" true (fce.Mae.Estimate.area > 0.);
      Alcotest.(check bool) "fc smaller than sc for tiny module" true
        (fce.Mae.Estimate.area < sc.Mae.Estimate.area);
      (* estimated at the transistor level all the same: the estimate
         of the explicitly built expansion, bit for bit *)
      let tx =
        Option.get
          (Mae.Methodology.expand_for_fullcustom report.circuit report.process)
      in
      Alcotest.(check (list int64)) "fc of the expansion"
        (S.fullcustom_bits
           (Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas tx report.process))
        (S.fullcustom_bits fce)
  | Ok _ -> Alcotest.fail "expected one report"

let test_driver_unknown_process () =
  let registry = Mae_tech.Registry.create () in
  let hdl = "module m { technology alien9; port a in; device i inv (a, y); }" in
  match Mae.Driver.run_string ~registry hdl with
  | Error (Mae.Driver.Unknown_process { technology = "alien9"; _ }) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unknown_process"

let test_driver_validation_failure () =
  let registry = Mae_tech.Registry.create () in
  let hdl = "module m { technology nmos25; device u alien (a, y); }" in
  match Mae.Driver.run_string ~registry hdl with
  | Error (Mae.Driver.Validation_failed { issues; _ }) ->
      Alcotest.(check bool) "has issues" true (issues <> [])
  | Error _ | Ok _ -> Alcotest.fail "expected Validation_failed"

let test_driver_parse_error () =
  let registry = Mae_tech.Registry.create () in
  match Mae.Driver.run_string ~registry "module {" with
  | Error (Mae.Driver.Parse_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Parse_error"

let test_driver_transistor_level_not_expanded () =
  let registry = Mae_tech.Registry.create () in
  let chain = Mae_workload.Generators.pass_chain 4 in
  match Mae.Driver.run_circuit ~registry chain with
  | Error _ -> Alcotest.fail "driver failed"
  | Ok report ->
      Alcotest.(check bool) "no expansion" true (report.expanded = None);
      (* estimated as it is *)
      let process = report.process in
      Alcotest.(check (list int64)) "fc of the circuit itself"
        (S.fullcustom_bits
           (Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas chain process))
        (S.fullcustom_bits (Option.get (Mae.Driver.fullcustom_exact report)))

(* Properties *)

let props =
  let open QCheck2.Gen in
  [
    S.qtest "eq5 equals closed form (random)"
      (triple (int_range 1 20) (int_range 1 12) (int_range 1 20))
      (fun (rows, degree, row) ->
        let row = ((row - 1) mod rows) + 1 in
        S.approx ~eps:1e-9
          (Mae.Feedthrough.prob_in_row ~rows ~degree ~row)
          (Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row));
    S.qtest "feed probability in [0,1]"
      (pair (int_range 1 30) (int_range 1 15))
      (fun (rows, degree) ->
        let p = Mae.Feedthrough.prob_central ~rows ~degree in
        p >= -1e-12 && p <= 1. +. 1e-12);
    S.qtest "expected span between 1 and min(n,D)"
      (pair (int_range 1 12) (int_range 1 12))
      (fun (rows, degree) ->
        let s =
          Mae.Row_model.expected_span ~model:Mae.Config.Paper_model ~rows ~degree
        in
        s >= 1 && s <= Stdlib.min rows degree);
    S.qtest "stdcell estimate scales with device count"
      (pair int (int_range 10 60))
      (fun (seed, devices) ->
        let params =
          {
            Mae_workload.Random_circuit.default_params with
            devices;
            primary_outputs = Stdlib.min 8 devices;
          }
        in
        let c = Mae_workload.Random_circuit.generate ~rng:(S.rng seed) params in
        let small = Mae.Stdcell.estimate ~rows:3 c S.nmos in
        let big = Mae.Stdcell.estimate ~rows:3 (Mae_workload.Mutate.duplicate c) S.nmos in
        big.Mae.Estimate.area > small.Mae.Estimate.area);
    S.qtest "fullcustom area >= device area" (pair int (int_range 5 40))
      (fun (seed, devices) ->
        let params =
          {
            Mae_workload.Random_circuit.default_params with
            devices;
            primary_outputs = Stdlib.min 8 devices;
          }
        in
        let c = Mae_workload.Random_circuit.generate ~rng:(S.rng seed) params in
        let est = Mae.Fullcustom.estimate ~mode:Mae.Config.Exact_areas c S.nmos in
        est.Mae.Estimate.area >= est.Mae.Estimate.device_area -. 1e-9);
  ]

let () =
  Alcotest.run "core"
    ([
      ( "row_model",
        [
          Alcotest.test_case "normalizes" `Quick test_row_model_normalizes;
          Alcotest.test_case "paper = exact when n >= D" `Quick
            test_row_model_matches_exact_when_rows_ge_degree;
          Alcotest.test_case "known values" `Quick test_row_model_known_values;
          Alcotest.test_case "single row" `Quick test_row_model_single_row;
          Alcotest.test_case "span monotone in D" `Quick
            test_expected_span_monotone_in_degree;
          Alcotest.test_case "wide keys" `Quick test_expected_span_wide_keys;
          Alcotest.test_case "histogram tracks" `Quick test_tracks_for_histogram;
        ] );
      ( "feedthrough",
        [
          Alcotest.test_case "eq5 = closed form" `Quick
            test_feedthrough_eq5_equals_closed_form;
          Alcotest.test_case "eq5 = closed form (exhaustive, 1e-10)" `Quick
            test_feedthrough_eq5_exhaustive_grid;
          Alcotest.test_case "closed form clamped to [0,1]" `Quick
            test_feedthrough_closed_form_clamped;
          Alcotest.test_case "argmax tie: even/odd rows" `Quick
            test_feedthrough_argmax_tie_even_odd;
          Alcotest.test_case "symmetry" `Quick test_feedthrough_symmetry;
          Alcotest.test_case "edge rows zero" `Quick test_feedthrough_edge_rows_zero;
          Alcotest.test_case "central argmax" `Quick test_feedthrough_central_argmax;
          Alcotest.test_case "equation 9" `Quick test_feedthrough_equation_nine;
          Alcotest.test_case "eq9 = eq8 at D=2" `Quick
            test_feedthrough_eq9_matches_eq8_for_two_components;
          Alcotest.test_case "E(M)" `Quick test_expected_feed_throughs;
          Alcotest.test_case "eq 6-7 stationary point" `Quick
            test_feedthrough_stationary_point;
        ] );
      ( "stdcell",
        [
          Alcotest.test_case "equation 12 arithmetic" `Quick
            test_stdcell_equation_twelve_arithmetic;
          Alcotest.test_case "aspect clamp" `Quick test_stdcell_aspect_clamped;
          Alcotest.test_case "monotone growth" `Quick
            test_stdcell_monotone_in_circuit_growth;
          Alcotest.test_case "track sharing config" `Quick
            test_stdcell_track_sharing_config;
          Alcotest.test_case "validation" `Quick test_stdcell_validation;
        ] );
      ( "row_select",
        [
          Alcotest.test_case "rows_for_divisor" `Quick test_rows_for_divisor;
          Alcotest.test_case "row_length" `Quick test_row_length;
          Alcotest.test_case "port constraint" `Quick
            test_initial_rows_port_constraint;
          Alcotest.test_case "candidates" `Quick test_row_candidates;
        ] );
      ( "fullcustom",
        [
          Alcotest.test_case "two-component free" `Quick
            test_fullcustom_two_component_free;
          Alcotest.test_case "strict mode" `Quick
            test_fullcustom_strict_mode_charges_pairs;
          Alcotest.test_case "net areas" `Quick test_fullcustom_net_areas;
          Alcotest.test_case "uniform widths: modes equal" `Quick
            test_fullcustom_exact_equals_average_for_uniform_widths;
          Alcotest.test_case "mixed widths: modes differ" `Quick
            test_fullcustom_modes_differ_with_mixed_widths;
          Alcotest.test_case "square aspect" `Quick
            test_fullcustom_aspect_square_when_ports_fit;
          Alcotest.test_case "port-stretched aspect" `Quick
            test_fullcustom_aspect_stretched_by_ports;
        ] );
      ( "aspect",
        [
          Alcotest.test_case "clamp band" `Quick test_aspect_clamp_band;
          Alcotest.test_case "port length" `Quick test_port_length;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "fc candidates" `Quick test_aspect_candidates;
          Alcotest.test_case "sc candidates" `Quick test_stdcell_shape_candidates;
          Alcotest.test_case "calibration" `Quick test_calibrate_sharing_factor;
        ] );
      ( "gatearray",
        [
          Alcotest.test_case "site demand" `Quick test_gatearray_site_demand;
          Alcotest.test_case "estimate" `Quick test_gatearray_estimate;
          Alcotest.test_case "monotone" `Quick test_gatearray_monotone;
          Alcotest.test_case "params validation" `Quick
            test_gatearray_params_validation;
          Alcotest.test_case "routability model" `Quick
            test_gatearray_routability_uses_track_model;
          Alcotest.test_case "routable master" `Quick
            test_gatearray_routable_master;
          Alcotest.test_case "routable base = estimate, bit for bit" `Quick
            test_gatearray_routable_equals_estimate;
          Alcotest.test_case "ledger carries the estimate" `Quick
            test_gatearray_ledger_is_the_estimate;
        ] );
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "driver",
        [
          Alcotest.test_case "runs hdl" `Quick test_driver_runs_hdl;
          Alcotest.test_case "unknown process" `Quick test_driver_unknown_process;
          Alcotest.test_case "validation failure" `Quick
            test_driver_validation_failure;
          Alcotest.test_case "parse error" `Quick test_driver_parse_error;
          Alcotest.test_case "transistor level" `Quick
            test_driver_transistor_level_not_expanded;
        ] );
      ("properties", props);
    ]
    @ ledger_grid)

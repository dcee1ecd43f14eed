(* The differential harness itself is test infrastructure, so it gets
   its own tier-1 coverage: the exact enumerator must agree with the
   closed forms it exists to judge, the sweep shrinker must actually
   shrink, and a small harness run must pass end to end and produce a
   well-formed report. *)

module S = Mae_test_support.Support
open Mae_check

(* Enumerate *)

let test_enumerate_small_grid () =
  for rows = 1 to 5 do
    for degree = 1 to 4 do
      let e = Enumerate.net ~rows ~degree in
      Alcotest.(check int)
        (Printf.sprintf "n=%d D=%d placements" rows degree)
        (int_of_float (Float.of_int rows ** Float.of_int degree))
        e.Enumerate.placements;
      Alcotest.(check int) "span tallies cover all placements"
        e.Enumerate.placements
        (Array.fold_left ( + ) 0 e.Enumerate.span_counts);
      Alcotest.(check int) "span 0 impossible" 0 e.Enumerate.span_counts.(0);
      (* exact span probabilities = the occupancy closed form *)
      for s = 1 to rows do
        S.check_float ~eps:1e-12
          (Printf.sprintf "n=%d D=%d P(span=%d)" rows degree s)
          (Mae_prob.Comb.choose rows s
          *. Mae_prob.Comb.surjections degree s
          /. Mae_prob.Comb.float_pow (Float.of_int rows) degree)
          (Enumerate.span_prob e s)
      done;
      (* exact feed-through probabilities = equation (5) *)
      for row = 1 to rows do
        S.check_float ~eps:1e-12
          (Printf.sprintf "n=%d D=%d feed(%d)" rows degree row)
          (Mae.Feedthrough.prob_in_row_closed ~rows ~degree ~row)
          (Enumerate.feed_prob e ~row)
      done;
      (* expectation consistent with the tallies *)
      let by_hand = ref 0. in
      for s = 1 to rows do
        by_hand := !by_hand +. (Float.of_int s *. Enumerate.span_prob e s)
      done;
      S.check_float ~eps:1e-12 "E(span)" !by_hand (Enumerate.expected_span e);
      S.check_float ~eps:1e-12 "span_dist expectation" !by_hand
        (Mae_prob.Dist.expectation (Enumerate.span_dist e))
    done
  done

let test_enumerate_validation () =
  S.raises_invalid (fun () -> ignore (Enumerate.net ~rows:0 ~degree:2));
  S.raises_invalid (fun () -> ignore (Enumerate.net ~rows:3 ~degree:0));
  (* 8^9 placements blow the 10-million-state budget *)
  S.raises_invalid (fun () -> ignore (Enumerate.net ~rows:8 ~degree:9));
  let e = Enumerate.net ~rows:4 ~degree:2 in
  S.raises_invalid (fun () -> ignore (Enumerate.feed_prob e ~row:0));
  S.raises_invalid (fun () -> ignore (Enumerate.feed_prob e ~row:5));
  S.check_float "span outside support" 0. (Enumerate.span_prob e 7)

(* Sweep *)

let test_sweep_random_case_bounds () =
  let rng = S.rng 13 in
  for _ = 1 to 500 do
    let c =
      Mae_workload.Sweep.random_case ~rng ~max_rows:8 ~max_degree:5 ~max_nets:64
    in
    if
      c.Mae_workload.Sweep.rows < 1
      || c.rows > 8
      || c.degree < 1
      || c.degree > 5
      || c.nets < 1
      || c.nets > 64
    then
      Alcotest.failf "case out of bounds: %s"
        (Mae_workload.Sweep.case_to_string c)
  done;
  S.raises_invalid (fun () ->
      ignore
        (Mae_workload.Sweep.random_case ~rng ~max_rows:0 ~max_degree:1
           ~max_nets:1))

let test_sweep_shrink_minimality () =
  let open Mae_workload.Sweep in
  Alcotest.(check (list string)) "minimal case has no candidates" []
    (List.map case_to_string (shrink { rows = 1; degree = 1; nets = 1 }));
  let c = { rows = 8; degree = 5; nets = 64 } in
  let candidates = shrink c in
  Alcotest.(check bool) "has candidates" true (candidates <> []);
  List.iter
    (fun s ->
      if size s >= size c then
        Alcotest.failf "candidate %s not smaller than %s" (case_to_string s)
          (case_to_string c);
      if s.rows < 1 || s.degree < 1 || s.nets < 1 then
        Alcotest.failf "candidate %s left the domain" (case_to_string s);
      (* one coordinate moved, the others held *)
      let moved =
        (if s.rows <> c.rows then 1 else 0)
        + (if s.degree <> c.degree then 1 else 0)
        + if s.nets <> c.nets then 1 else 0
      in
      Alcotest.(check int) "single-coordinate step" 1 moved)
    candidates

(* Harness *)

let small_config =
  { Harness.default with trials = 5_000; cases = 6; seed = 42 }

let test_harness_small_run_passes () =
  let r = Harness.run small_config in
  Alcotest.(check bool) "passed" true r.Harness.passed;
  Alcotest.(check int) "all cases ran" small_config.cases r.Harness.cases_run;
  Alcotest.(check bool) "compared something" true (r.Harness.comparisons > 0);
  Alcotest.(check bool) "no findings" true (r.Harness.findings = []);
  Alcotest.(check bool) "families populated" true (r.Harness.families <> []);
  List.iter
    (fun (f : Harness.family_stat) ->
      Alcotest.(check bool)
        (f.family ^ " compared") true (f.comparisons > 0))
    r.Harness.families;
  Alcotest.(check bool) "golden rows ran" true (r.Harness.golden <> []);
  List.iter
    (fun (g : Harness.golden_result) ->
      Alcotest.(check bool) (g.label ^ " reproduces") true g.ok)
    r.Harness.golden

let test_harness_kernel_grids_pass () =
  let kernels = Harness.run_kernels () in
  Alcotest.(check (list string))
    "kernel grids ran"
    [ "kernel.span_ceil.paper"; "kernel.span_ceil.exact"; "kernel.feed_ceil" ]
    (List.map (fun (k : Harness.cross_result) -> k.label) kernels);
  List.iter
    (fun (k : Harness.cross_result) ->
      Alcotest.(check bool) (k.label ^ ": " ^ k.detail) true k.ok)
    kernels

let test_harness_deterministic () =
  let a = Harness.run small_config and b = Harness.run small_config in
  Alcotest.(check int) "same comparisons" a.Harness.comparisons
    b.Harness.comparisons;
  List.iter2
    (fun (x : Harness.family_stat) (y : Harness.family_stat) ->
      Alcotest.(check string) "same family order" x.family y.family;
      Alcotest.(check int) (x.family ^ " comparisons") x.comparisons
        y.comparisons;
      S.check_float ~eps:0. (x.family ^ " max delta") x.max_delta y.max_delta)
    a.Harness.families b.Harness.families

let test_harness_validates_config () =
  S.raises_invalid (fun () ->
      ignore (Harness.run { small_config with trials = 0 }));
  S.raises_invalid (fun () ->
      ignore (Harness.run { small_config with cases = 0 }));
  S.raises_invalid (fun () ->
      ignore (Harness.run { small_config with max_rows = 0 }))

let test_harness_goldens_derive () =
  let goldens = Harness.derive_goldens () in
  Alcotest.(check bool) "non-empty" true (goldens <> []);
  (* each label appears once and carries a finite value *)
  let labels = List.map fst goldens in
  Alcotest.(check int) "labels unique"
    (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ " finite") true (Float.is_finite v))
    goldens;
  (* and the report checks exactly these rows *)
  let r = Harness.run small_config in
  Alcotest.(check int) "report covers every golden row"
    (List.length goldens)
    (List.length r.Harness.golden)

let test_harness_report_json_round_trips () =
  let r = Harness.run small_config in
  let json = Harness.report_json small_config r ~kernels:[] in
  match Mae_obs.Json.parse (Mae_obs.Json.encode json) with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok parsed ->
      let number path =
        match Mae_obs.Json.member path parsed with
        | Some n -> Option.get (Mae_obs.Json.to_number n)
        | None -> Alcotest.failf "missing %s" path
      in
      Alcotest.(check bool) "passed flag" true
        (Mae_obs.Json.member "passed" parsed = Some (Mae_obs.Json.Bool true));
      S.check_float "cases_run"
        (Float.of_int r.Harness.cases_run)
        (number "cases_run");
      S.check_float "comparisons"
        (Float.of_int r.Harness.comparisons)
        (number "comparisons");
      let families =
        Option.get (Mae_obs.Json.to_list (Option.get (Mae_obs.Json.member "families" parsed)))
      in
      Alcotest.(check int) "family rows"
        (List.length r.Harness.families)
        (List.length families);
      match Mae_obs.Json.member "findings" parsed with
      | Some (Mae_obs.Json.Array []) -> ()
      | _ -> Alcotest.fail "expected empty findings array"

let () =
  Alcotest.run "check"
    [
      ( "enumerate",
        [
          Alcotest.test_case "matches closed forms" `Quick
            test_enumerate_small_grid;
          Alcotest.test_case "validation" `Quick test_enumerate_validation;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "random case bounds" `Quick
            test_sweep_random_case_bounds;
          Alcotest.test_case "shrink minimality" `Quick
            test_sweep_shrink_minimality;
        ] );
      ( "harness",
        [
          Alcotest.test_case "small run passes" `Slow
            test_harness_small_run_passes;
          Alcotest.test_case "kernel grids pass" `Slow
            test_harness_kernel_grids_pass;
          Alcotest.test_case "deterministic" `Slow test_harness_deterministic;
          Alcotest.test_case "config validation" `Quick
            test_harness_validates_config;
          Alcotest.test_case "goldens derive" `Slow test_harness_goldens_derive;
          Alcotest.test_case "report json round-trips" `Slow
            test_harness_report_json_round_trips;
        ] );
    ]

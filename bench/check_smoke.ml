(* The correctness gate behind [dune build @check-smoke]: a scaled-down
   differential-harness sweep that still exercises all three oracles
   (closed form, Monte-Carlo, exact enumeration), the greedy shrinker
   path, the golden Table 1 / Table 2 rows, the kernel grids at full
   size and the JSON report encoder.

   Small on purpose -- a few seconds, not minutes -- so it can sit next
   to @bench-smoke in CI on every push.  The full-strength sweep is
   [mae check --trials 200000 --cases 64 --seed 42]. *)

let fail fmt = Format.kasprintf (fun m -> prerr_endline ("check_smoke: " ^ m); exit 1) fmt

let () =
  let config =
    {
      Mae_check.Harness.default with
      trials = 20_000;
      cases = 24;
      seed = 42;
    }
  in
  let report = Mae_check.Harness.run config in
  let kernels = Mae_check.Harness.run_kernels () in
  Format.printf "%a@.%a@." Mae_check.Harness.pp_report report
    Mae_check.Harness.pp_kernels kernels;

  let passed =
    report.passed
    && List.for_all (fun (k : Mae_check.Harness.cross_result) -> k.ok) kernels
  in

  (* The machine-readable report must round-trip through the in-repo
     JSON parser -- same guarantee @obs-smoke gives the trace artifacts. *)
  let json = Mae_check.Harness.report_json config report ~kernels in
  let encoded = Mae_obs.Json.encode json in
  begin
    match Mae_obs.Json.parse encoded with
    | Error e -> fail "report JSON does not parse: %s" e
    | Ok parsed -> begin
        match Mae_obs.Json.(member "passed" parsed) with
        | Some (Mae_obs.Json.Bool b) when b = passed -> ()
        | _ -> fail "report JSON lost the passed flag"
      end
  end;

  (* The sweep must have actually compared things in every family. *)
  if report.cases_run <> config.cases then
    fail "ran %d cases, expected %d" report.cases_run config.cases;
  if report.comparisons < config.cases then
    fail "only %d comparisons over %d cases" report.comparisons config.cases;
  List.iter
    (fun (s : Mae_check.Harness.family_stat) ->
      if s.comparisons = 0 then fail "family %s never ran" s.family)
    report.families;
  if List.length report.golden = 0 then fail "no golden rows ran";
  if List.length kernels <> 3 then fail "the kernel grids did not run";
  List.iter
    (fun (k : Mae_check.Harness.cross_result) ->
      if not k.ok then fail "kernel %s: %s" k.label k.detail)
    kernels;
  List.iter
    (fun (g : Mae_check.Harness.golden_result) ->
      if not g.ok then
        fail "golden row %s: expected %.17g got %.17g" g.label g.expected
          g.actual)
    report.golden;

  if not report.passed then begin
    List.iter
      (fun (f : Mae_check.Harness.finding) ->
        Format.eprintf "finding: %s at %a (shrunk %a): |delta| %g > %g (%s)@."
          f.check Mae_workload.Sweep.pp_case f.case Mae_workload.Sweep.pp_case
          f.shrunk f.delta f.bound f.detail)
      report.findings;
    fail "oracles disagree (%d findings)" (List.length report.findings)
  end;
  print_endline "check-smoke ok"

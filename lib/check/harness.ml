(* The differential correctness harness: three independent oracles over
   the paper's probability kernels.

   (a) the closed-form kernels the pipeline serves (Kernel_cache,
       Feedthrough) -- the code under test;
   (b) the Monte-Carlo simulator (Montecarlo), whose agreement is judged
       statistically inside a z-sigma Wilson interval;
   (c) the exact enumerator (Enumerate), which walks all n^D placements
       and is compared to the closed forms to a hard 1e-12.

   Cases (n, D, H) are drawn from Mae_workload.Sweep; any failing case
   is shrunk to a minimal reproducer before it is reported.  The paper's
   Table 1 / Table 2 estimator outputs are pinned as golden rows so a
   numeric regression anywhere in the estimation stack trips the same
   gate. *)

module Sweep = Mae_workload.Sweep
module Kc = Mae_prob.Kernel_cache

(* The golden rows are re-derived through the methodology registry and
   the cross-method sanity section runs every registered estimator, so
   the baselines must be registered before [run]. *)
let () = Mae_baselines.Methods.ensure_registered ()

let cases_count =
  Mae_obs.Metrics.counter "mae_check_cases_total"
    ~help:"Sweep cases examined by the differential harness"

let comparisons_count =
  Mae_obs.Metrics.counter "mae_check_comparisons_total"
    ~help:"Oracle-vs-oracle comparisons performed by the harness"

let violations_count =
  Mae_obs.Metrics.counter "mae_check_violations_total"
    ~help:"Comparisons that exceeded their tolerance"

type config = {
  trials : int;
  cases : int;
  seed : int;
  max_rows : int;
  max_degree : int;
  max_nets : int;
  exact_tol : float;
  eq5_tol : float;
  mc_z : float;
}

let default =
  {
    trials = 200_000;
    cases = 64;
    seed = 42;
    max_rows = 8;
    max_degree = 5;
    max_nets = 64;
    exact_tol = 1e-12;
    eq5_tol = 1e-10;
    mc_z = 4.;
  }

let validate config =
  if config.trials < 1 then invalid_arg "Harness: trials < 1";
  if config.cases < 1 then invalid_arg "Harness: cases < 1";
  if config.max_rows < 1 then invalid_arg "Harness: max_rows < 1";
  if config.max_degree < 1 then invalid_arg "Harness: max_degree < 1";
  if config.max_nets < 1 then invalid_arg "Harness: max_nets < 1";
  if config.exact_tol <= 0. then invalid_arg "Harness: exact_tol <= 0";
  if config.eq5_tol <= 0. then invalid_arg "Harness: eq5_tol <= 0";
  if config.mc_z <= 0. then invalid_arg "Harness: mc_z <= 0"

type violation = { delta : float; bound : float; detail : string }

type outcome = {
  comparisons : int;
  max_delta : float;
  violations : violation list;
}

type finding = {
  check : string;
  case : Sweep.case;
  shrunk : Sweep.case;
  delta : float;
  bound : float;
  detail : string;
}

type family_stat = { family : string; comparisons : int; max_delta : float }

type golden_result = {
  label : string;
  expected : float;
  actual : float;
  ok : bool;
}

type cross_result = { label : string; detail : string; ok : bool }

type report = {
  cases_run : int;
  comparisons : int;
  families : family_stat list;
  findings : finding list;
  golden : golden_result list;
  cross : cross_result list;
  passed : bool;
}

(* --- one deterministic rng per (config, case): shrinking re-runs a
   Monte-Carlo family on a candidate case and must see the same stream
   every time --- *)

let case_rng config (c : Sweep.case) =
  Mae_prob.Rng.create
    ~seed:
      (config.seed
      lxor (c.rows * 0x9e3779b9)
      lxor (c.degree * 0x85ebca6b)
      lxor (c.nets * 0xc2b2ae35))

(* --- outcome accumulation --- *)

let collect checks =
  let comparisons = ref 0 and max_delta = ref 0. and violations = ref [] in
  List.iter
    (fun (delta, bound, detail) ->
      incr comparisons;
      if delta > !max_delta then max_delta := delta;
      if delta > bound then violations := { delta; bound; detail } :: !violations)
    checks;
  {
    comparisons = !comparisons;
    max_delta = !max_delta;
    violations = List.rev !violations;
  }

let inside (lo, hi) p = p >= lo && p <= hi

(* --- the check families --- *)

(* Exact enumeration vs the served closed-form row-span kernel
   (equations 2-3, Exact occupancy model). *)
let span_exact_vs_enum config (c : Sweep.case) =
  let e = Enumerate.net ~rows:c.rows ~degree:c.degree in
  let d =
    Kc.row_span_dist_uncached ~model:Kc.Exact ~rows:c.rows ~degree:c.degree
  in
  let per_outcome =
    List.init c.rows (fun i ->
        let s = i + 1 in
        let exact = Enumerate.span_prob e s in
        let closed = Mae_prob.Dist.prob d s in
        ( Float.abs (exact -. closed),
          config.exact_tol,
          Printf.sprintf "P(span=%d): enum %.17g vs closed %.17g" s exact
            closed ))
  in
  let expectation =
    let exact = Enumerate.expected_span e in
    let closed = Mae_prob.Dist.expectation d in
    ( Float.abs (exact -. closed),
      config.exact_tol *. Float.of_int c.rows,
      Printf.sprintf "E(span): enum %.17g vs closed %.17g" exact closed )
  in
  let ceiling =
    let enum_ceil = Mae_prob.Dist.expectation_ceil (Enumerate.span_dist e) in
    let closed_ceil = Kc.expected_span ~model:Kc.Exact ~rows:c.rows ~degree:c.degree in
    ( Float.of_int (abs (enum_ceil - closed_ceil)),
      0.,
      Printf.sprintf "ceil E(span): enum %d vs closed %d" enum_ceil closed_ceil
    )
  in
  collect (per_outcome @ [ expectation; ceiling ])

(* The paper's equation-(2) b-recurrence coincides with the exact
   occupancy distribution whenever D <= n (k = min(n, D) = D). *)
let span_paper_vs_enum config (c : Sweep.case) =
  if c.degree > c.rows then collect []
  else begin
    let e = Enumerate.net ~rows:c.rows ~degree:c.degree in
    let d =
      Kc.row_span_dist_uncached ~model:Kc.Paper ~rows:c.rows ~degree:c.degree
    in
    collect
      (List.init c.rows (fun i ->
           let s = i + 1 in
           let exact = Enumerate.span_prob e s in
           let closed = Mae_prob.Dist.prob d s in
           ( Float.abs (exact -. closed),
             config.exact_tol,
             Printf.sprintf "paper P(span=%d): enum %.17g vs eq2 %.17g" s
               exact closed )))
  end

(* Exact enumeration vs the inclusion-exclusion feed-through form
   (equations 4-6). *)
let feed_closed_vs_enum config (c : Sweep.case) =
  let e = Enumerate.net ~rows:c.rows ~degree:c.degree in
  collect
    (List.init c.rows (fun i ->
         let row = i + 1 in
         let exact = Enumerate.feed_prob e ~row in
         let closed =
           Mae.Feedthrough.prob_in_row_closed ~rows:c.rows ~degree:c.degree
             ~row
         in
         ( Float.abs (exact -. closed),
           config.exact_tol,
           Printf.sprintf "P(feed row %d): enum %.17g vs closed %.17g" row
             exact closed )))

(* Equation (5) verbatim double sum vs its closed form. *)
let feed_eq5_vs_closed config (c : Sweep.case) =
  collect
    (List.init c.rows (fun i ->
         let row = i + 1 in
         let eq5 =
           Mae.Feedthrough.prob_in_row ~rows:c.rows ~degree:c.degree ~row
         in
         let closed =
           Mae.Feedthrough.prob_in_row_closed ~rows:c.rows ~degree:c.degree
             ~row
         in
         ( Float.abs (eq5 -. closed),
           config.eq5_tol,
           Printf.sprintf "eq5 row %d: sum %.17g vs closed %.17g" row eq5
             closed )))

(* Equation (9): for an odd row count the central row is an integer and
   the two-component model must equal the enumerated crossing
   probability exactly.  (For even n equation (9) evaluates the closed
   form at the fractional central row -- the paper's continuous
   interpolation, checked against the closed form instead.) *)
let feed_eq9_vs_enum config (c : Sweep.case) =
  if c.rows land 1 = 0 then
    let eq9 = Kc.two_component_feed_prob ~rows:c.rows in
    let central = Mae.Feedthrough.prob_central ~rows:c.rows ~degree:2 in
    collect
      [
        ( Float.abs (eq9 -. central),
          config.exact_tol,
          Printf.sprintf "eq9 n=%d: %.17g vs closed central %.17g" c.rows eq9
            central );
      ]
  else begin
    let e = Enumerate.net ~rows:c.rows ~degree:2 in
    let central = (c.rows + 1) / 2 in
    let eq9 = Kc.two_component_feed_prob ~rows:c.rows in
    let exact = Enumerate.feed_prob e ~row:central in
    collect
      [
        ( Float.abs (eq9 -. exact),
          config.exact_tol,
          Printf.sprintf "eq9 n=%d: %.17g vs enum central %.17g" c.rows eq9
            exact );
      ]
  end

(* Monte-Carlo row-span frequencies vs exact enumeration, judged inside
   the z-sigma Wilson interval. *)
let span_mc_wilson config (c : Sweep.case) =
  let e = Enumerate.net ~rows:c.rows ~degree:c.degree in
  let counts =
    Mae_prob.Montecarlo.simulate_counts ~rng:(case_rng config c)
      ~trials:config.trials ~rows:c.rows ~degree:c.degree
  in
  let support = Stdlib.min c.rows c.degree in
  collect
    (List.init support (fun i ->
         let s = i + 1 in
         let exact = Enumerate.span_prob e s in
         let lo, hi =
           Mae_prob.Montecarlo.span_interval counts ~z:config.mc_z ~span:s
         in
         let sampled =
           Float.of_int counts.Mae_prob.Montecarlo.span_counts.(s)
           /. Float.of_int config.trials
         in
         ( Float.abs (sampled -. exact),
           (if inside (lo, hi) exact then Float.infinity else 0.),
           Printf.sprintf
             "P(span=%d)=%.8g outside %.1f-sigma Wilson [%.8g, %.8g]" s exact
             config.mc_z lo hi )))

(* Monte-Carlo feed-through frequencies vs the closed form, same
   statistical judgement. *)
let feed_mc_wilson config (c : Sweep.case) =
  let counts =
    Mae_prob.Montecarlo.simulate_counts ~rng:(case_rng config c)
      ~trials:config.trials ~rows:c.rows ~degree:c.degree
  in
  collect
    (List.init c.rows (fun i ->
         let row = i + 1 in
         let closed =
           Mae.Feedthrough.prob_in_row_closed ~rows:c.rows ~degree:c.degree
             ~row
         in
         let lo, hi =
           Mae_prob.Montecarlo.feed_interval counts ~z:config.mc_z ~row
         in
         let sampled =
           Float.of_int counts.Mae_prob.Montecarlo.feed_counts.(row - 1)
           /. Float.of_int config.trials
         in
         ( Float.abs (sampled -. closed),
           (if inside (lo, hi) closed then Float.infinity else 0.),
           Printf.sprintf
             "P(feed row %d)=%.8g outside %.1f-sigma Wilson [%.8g, %.8g]" row
             closed config.mc_z lo hi )))

(* Equations (10)-(11): H independent two-component nets against the
   served binomial.  The simulation path shares nothing with the pmf
   computation (raw uniforms vs log-space Comb), so it cross-validates
   the binomial machinery; the mean is also pinned to H*p in closed
   form. *)
let binom_mc_wilson config (c : Sweep.case) =
  let p = Kc.two_component_feed_prob ~rows:c.rows in
  let dist = Mae.Feedthrough.feed_through_dist ~net_count:c.nets ~rows:c.rows in
  let rng = case_rng config c in
  let t = Stdlib.min config.trials 20_000 in
  let counts = Array.make (c.nets + 1) 0 in
  for _ = 1 to t do
    let m = ref 0 in
    for _ = 1 to c.nets do
      if Mae_prob.Rng.uniform rng < p then incr m
    done;
    counts.(!m) <- counts.(!m) + 1
  done;
  let mean_exact = Float.of_int c.nets *. p in
  let mean_closed = Mae_prob.Dist.expectation dist in
  let mean_sampled =
    let sum = ref 0. in
    Array.iteri
      (fun m n -> sum := !sum +. (Float.of_int m *. Float.of_int n))
      counts;
    !sum /. Float.of_int t
  in
  let sigma =
    Float.sqrt (Float.of_int c.nets *. p *. (1. -. p) /. Float.of_int t)
  in
  let mode = Mae_prob.Dist.mode dist in
  let mode_p = Mae_prob.Dist.prob dist mode in
  let lo, hi =
    Mae_prob.Stats.wilson_interval ~successes:counts.(mode) ~trials:t
      ~z:config.mc_z
  in
  collect
    [
      ( Float.abs (mean_closed -. mean_exact),
        1e-9 *. Float.max 1. mean_exact,
        Printf.sprintf "binomial mean: pmf %.17g vs H*p %.17g" mean_closed
          mean_exact );
      ( Float.abs (mean_sampled -. mean_exact),
        config.mc_z *. sigma,
        Printf.sprintf
          "binomial mean %.8g sampled %.8g beyond %.1f sigma (sigma %.3g)"
          mean_exact mean_sampled config.mc_z sigma );
      ( Float.abs ((Float.of_int counts.(mode) /. Float.of_int t) -. mode_p),
        (if inside (lo, hi) mode_p then Float.infinity else 0.),
        Printf.sprintf
          "P(M=%d)=%.8g outside %.1f-sigma Wilson [%.8g, %.8g]" mode mode_p
          config.mc_z lo hi );
    ]

let families =
  [
    ("span.exact_vs_enum", span_exact_vs_enum);
    ("span.paper_vs_enum", span_paper_vs_enum);
    ("feed.closed_vs_enum", feed_closed_vs_enum);
    ("feed.eq5_vs_closed", feed_eq5_vs_closed);
    ("feed.eq9_vs_enum", feed_eq9_vs_enum);
    ("span.mc_wilson", span_mc_wilson);
    ("feed.mc_wilson", feed_mc_wilson);
    ("binom.mc_wilson", binom_mc_wilson);
  ]

(* --- shrinking: greedy descent over Sweep.shrink candidates, re-running
   one family, until no strictly smaller case still fails --- *)

let family_fails config run c =
  match run config c with
  | { violations = []; _ } -> None
  | { violations = v :: _; _ } -> Some v
  | exception Invalid_argument _ -> None

let shrink_case config run c =
  let rec go current =
    let rec try_candidates = function
      | [] -> current
      | cand :: rest -> begin
          match family_fails config run cand with
          | Some _ -> go cand
          | None -> try_candidates rest
        end
    in
    try_candidates (Sweep.shrink current)
  in
  go c

(* --- golden rows: the paper's Table 1 / Table 2 experiments, pinned.

   Values re-derived from the estimator itself -- through the
   methodology registry, exactly the path the driver/engine/serve
   pipeline takes: [fullcustom-exact] / [fullcustom-average] over the
   five Table 1 circuits, [stdcell] with a forced row count over the two
   Table 2 circuits at 2/3/4 rows -- and frozen here; a drift anywhere
   in the estimation stack (kernels, combinatorics, rounding, or the
   registry plumbing itself) moves one of these numbers.  Tolerance 1e-9
   relative absorbs libm ulp differences across platforms while catching
   any real change. --- *)

let golden_table1 =
  [
    ("table1.pass8.exact_area", 320.);
    ("table1.pass8.average_area", 320.);
    ("table1.invchain6.exact_area", 856.);
    ("table1.invchain6.average_area", 856.);
    ("table1.fa_tx.exact_area", 1868.);
    ("table1.fa_tx.average_area", 1868.);
    ("table1.dec2_tx.exact_area", 1568.);
    ("table1.dec2_tx.average_area", 1568.);
    ("table1.sr2_tx.exact_area", 2756.);
    ("table1.sr2_tx.average_area", 2756.);
  ]

let golden_table2 =
  [
    ("table2.counter8.rows2.area", 196345.);
    ("table2.counter8.rows2.tracks", 65.);
    ("table2.counter8.rows2.feeds", 5.);
    ("table2.counter8.rows3.area", 186645.33333333337);
    ("table2.counter8.rows3.tracks", 79.);
    ("table2.counter8.rows3.feeds", 8.);
    ("table2.counter8.rows4.area", 168268.);
    ("table2.counter8.rows4.tracks", 79.);
    ("table2.counter8.rows4.feeds", 10.);
    ("table2.alu4.rows2.area", 541633.);
    ("table2.alu4.rows2.tracks", 129.);
    ("table2.alu4.rows2.feeds", 9.);
    ("table2.alu4.rows3.area", 506502.33333333331);
    ("table2.alu4.rows3.tracks", 151.);
    ("table2.alu4.rows3.feeds", 15.);
    ("table2.alu4.rows4.area", 458809.);
    ("table2.alu4.rows4.tracks", 151.);
    ("table2.alu4.rows4.feeds", 19.);
  ]

let run_method ?rows_override name (circuit : Mae_netlist.Circuit.t) process =
  match Mae.Methodology.find name with
  | None -> Error (Mae.Methodology.Unknown_method name)
  | Some t -> begin
      match Mae.Methodology.make_ctx ?rows_override ~process circuit with
      | Error e -> Error e
      | Ok ctx -> Mae.Methodology.run ctx t circuit
    end

let derive_goldens () =
  let process = Mae_tech.Builtin.nmos25 in
  let t1 =
    List.concat_map
      (fun (e : Mae_workload.Bench_circuits.entry) ->
        let fc_area name =
          match run_method name e.circuit process with
          | Ok (Mae.Methodology.Fullcustom f) -> f.Mae.Estimate.area
          | Ok _ | Error _ -> Float.nan
        in
        [
          ( Printf.sprintf "table1.%s.exact_area" e.name,
            fc_area "fullcustom-exact" );
          ( Printf.sprintf "table1.%s.average_area" e.name,
            fc_area "fullcustom-average" );
        ])
      (Mae_workload.Bench_circuits.table1 ())
  in
  let t2 =
    List.concat_map
      (fun (e : Mae_workload.Bench_circuits.entry) ->
        List.concat_map
          (fun rows ->
            let area, tracks, feeds =
              match run_method ~rows_override:rows "stdcell" e.circuit process with
              | Ok (Mae.Methodology.Stdcell { auto; _ }) ->
                  ( auto.Mae.Estimate.area,
                    Float.of_int auto.Mae.Estimate.tracks,
                    Float.of_int auto.Mae.Estimate.feed_throughs )
              | Ok _ | Error _ -> (Float.nan, Float.nan, Float.nan)
            in
            [
              (Printf.sprintf "table2.%s.rows%d.area" e.name rows, area);
              (Printf.sprintf "table2.%s.rows%d.tracks" e.name rows, tracks);
              (Printf.sprintf "table2.%s.rows%d.feeds" e.name rows, feeds);
            ])
          [ 2; 3; 4 ])
      (Mae_workload.Bench_circuits.table2 ())
  in
  t1 @ t2

let run_goldens () =
  let actuals = derive_goldens () in
  List.map
    (fun (label, expected) ->
      let actual =
        match List.assoc_opt label actuals with
        | Some v -> v
        | None -> Float.nan
      in
      let ok =
        Float.abs (actual -. expected)
        <= 1e-9 *. Float.max 1. (Float.abs expected)
      in
      { label; expected; actual; ok })
    (golden_table1 @ golden_table2)

(* --- cross-method sanity: every registered methodology over the bench
   suites, checked against invariants that hold for any sound area
   estimate on these circuits: it succeeds, area is positive, the
   reported footprint is consistent (width * height = area), and the
   models that account for device footprints (stdcell, fullcustom,
   naive) never go below the summed device area. --- *)

let run_cross () =
  let process = Mae_tech.Builtin.nmos25 in
  let entries =
    Mae_workload.Bench_circuits.table1 () @ Mae_workload.Bench_circuits.table2 ()
  in
  List.concat_map
    (fun (e : Mae_workload.Bench_circuits.entry) ->
      match Mae.Methodology.make_ctx ~process e.circuit with
      | Error err ->
          [
            {
              label = Printf.sprintf "cross.%s.ctx" e.name;
              detail = Mae.Methodology.error_to_string err;
              ok = false;
            };
          ]
      | Ok ctx ->
          List.concat_map
            (fun t ->
              let m = Mae.Methodology.name t in
              let label sub = Printf.sprintf "cross.%s.%s.%s" e.name m sub in
              match Mae.Methodology.run ctx t e.circuit with
              | Error err ->
                  [
                    {
                      label = label "runs";
                      detail = Mae.Methodology.error_to_string err;
                      ok = false;
                    };
                  ]
              | Ok o ->
                  let d = Mae.Methodology.dims o in
                  let consistent =
                    Float.abs ((d.width *. d.height) -. d.area)
                    <= 1e-6 *. Float.max 1. d.area
                  in
                  let base =
                    [
                      { label = label "runs"; detail = "estimated"; ok = true };
                      {
                        label = label "area_positive";
                        detail = Printf.sprintf "area %.17g" d.area;
                        ok = d.area > 0.;
                      };
                      {
                        label = label "dims_consistent";
                        detail =
                          Printf.sprintf "%.17g x %.17g vs area %.17g" d.width
                            d.height d.area;
                        ok = consistent;
                      };
                    ]
                  in
                  let device_floor =
                    let floor_check stats_area =
                      [
                        {
                          label = label "device_floor";
                          detail =
                            Printf.sprintf "area %.17g >= device area %.17g"
                              d.area stats_area;
                          ok = d.area >= stats_area;
                        };
                      ]
                    in
                    match o with
                    | Mae.Methodology.Stdcell _ ->
                        floor_check
                          ctx.Mae.Methodology.stats
                            .Mae_netlist.Stats.total_device_area
                    | Mae.Methodology.Fullcustom _ ->
                        floor_check
                          ctx.Mae.Methodology.fc_stats
                            .Mae_netlist.Stats.total_device_area
                    | Mae.Methodology.Scalar _ when String.equal m "naive" ->
                        floor_check
                          ctx.Mae.Methodology.stats
                            .Mae_netlist.Stats.total_device_area
                    | Mae.Methodology.Gatearray _ | Mae.Methodology.Scalar _ ->
                        []
                  in
                  base @ device_floor)
            (Mae.Methodology.all ()))
    entries

(* --- the sweep --- *)

let run ?(log = fun (_ : string) -> ()) config =
  validate config;
  Mae_obs.Span.with_ ~name:"check.run" (fun () ->
      let rng = Mae_prob.Rng.create ~seed:config.seed in
      let stats = Hashtbl.create 16 in
      List.iter (fun (name, _) -> Hashtbl.replace stats name (0, 0.)) families;
      let findings = ref [] in
      let comparisons = ref 0 in
      for i = 1 to config.cases do
        let c =
          Sweep.random_case ~rng ~max_rows:config.max_rows
            ~max_degree:config.max_degree ~max_nets:config.max_nets
        in
        Mae_obs.Metrics.incr cases_count;
        Mae_obs.Span.with_ ~name:"check.case"
          ~attrs:[ ("case", Sweep.case_to_string c) ] (fun () ->
            List.iter
              (fun (name, run_family) ->
                let (o : outcome) = run_family config c in
                comparisons := !comparisons + o.comparisons;
                Mae_obs.Metrics.add comparisons_count o.comparisons;
                let n, m = Hashtbl.find stats name in
                Hashtbl.replace stats name
                  ( n + o.comparisons,
                    Float.max m
                      (if o.max_delta = Float.infinity then m else o.max_delta)
                  );
                match o.violations with
                | [] -> ()
                | v :: _ ->
                    Mae_obs.Metrics.incr violations_count;
                    log
                      (Printf.sprintf "FAIL %s %s: %s" name
                         (Sweep.case_to_string c) v.detail);
                    let shrunk = shrink_case config run_family c in
                    let v' =
                      match family_fails config run_family shrunk with
                      | Some v' -> v'
                      | None -> v
                    in
                    findings :=
                      {
                        check = name;
                        case = c;
                        shrunk;
                        delta = v'.delta;
                        bound = v'.bound;
                        detail = v'.detail;
                      }
                      :: !findings)
              families);
        if i land 15 = 0 then
          log (Printf.sprintf "case %d/%d done" i config.cases)
      done;
      let golden = run_goldens () in
      List.iter
        (fun (g : golden_result) ->
          if not g.ok then
            log
              (Printf.sprintf "FAIL golden %s: expected %.17g, got %.17g"
                 g.label g.expected g.actual))
        golden;
      let cross = run_cross () in
      List.iter
        (fun (c : cross_result) ->
          if not c.ok then
            log (Printf.sprintf "FAIL cross %s: %s" c.label c.detail))
        cross;
      let families_out =
        List.map
          (fun (name, _) ->
            let n, m = Hashtbl.find stats name in
            { family = name; comparisons = n; max_delta = m })
          families
      in
      {
        cases_run = config.cases;
        comparisons = !comparisons;
        families = families_out;
        findings = List.rev !findings;
        golden;
        cross;
        passed =
          !findings = []
          && List.for_all (fun (g : golden_result) -> g.ok) golden
          && List.for_all (fun (c : cross_result) -> c.ok) cross;
      })

(* --- reporting --- *)

let json_of_case (c : Sweep.case) =
  Mae_obs.Json.Object
    [
      ("rows", Mae_obs.Json.Number (Float.of_int c.rows));
      ("degree", Mae_obs.Json.Number (Float.of_int c.degree));
      ("nets", Mae_obs.Json.Number (Float.of_int c.nets));
    ]

let report_json config r =
  let open Mae_obs.Json in
  Object
    [
      ( "config",
        Object
          [
            ("trials", Number (Float.of_int config.trials));
            ("cases", Number (Float.of_int config.cases));
            ("seed", Number (Float.of_int config.seed));
            ("max_rows", Number (Float.of_int config.max_rows));
            ("max_degree", Number (Float.of_int config.max_degree));
            ("max_nets", Number (Float.of_int config.max_nets));
            ("exact_tol", Number config.exact_tol);
            ("eq5_tol", Number config.eq5_tol);
            ("mc_z", Number config.mc_z);
          ] );
      ("cases_run", Number (Float.of_int r.cases_run));
      ("comparisons", Number (Float.of_int r.comparisons));
      ( "families",
        Array
          (List.map
             (fun f ->
               Object
                 [
                   ("family", String f.family);
                   ("comparisons", Number (Float.of_int f.comparisons));
                   ("max_delta", Number f.max_delta);
                 ])
             r.families) );
      ( "findings",
        Array
          (List.map
             (fun f ->
               Object
                 [
                   ("check", String f.check);
                   ("case", json_of_case f.case);
                   ("shrunk", json_of_case f.shrunk);
                   ("delta", Number f.delta);
                   ("bound", Number f.bound);
                   ("detail", String f.detail);
                 ])
             r.findings) );
      ( "golden",
        Array
          (List.map
             (fun (g : golden_result) ->
               Object
                 [
                   ("label", String g.label);
                   ("expected", Number g.expected);
                   ("actual", Number g.actual);
                   ("ok", Bool g.ok);
                 ])
             r.golden) );
      ( "cross",
        Array
          (List.map
             (fun (c : cross_result) ->
               Object
                 [
                   ("label", String c.label);
                   ("detail", String c.detail);
                   ("ok", Bool c.ok);
                 ])
             r.cross) );
      ("passed", Bool r.passed);
    ]

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "differential check: %d cases, %d comparisons@,"
    r.cases_run r.comparisons;
  List.iter
    (fun f ->
      Format.fprintf ppf "  %-22s %6d comparisons  max |delta| %.3g@,"
        f.family f.comparisons f.max_delta)
    r.families;
  let golden_ok =
    List.length (List.filter (fun (g : golden_result) -> g.ok) r.golden)
  in
  Format.fprintf ppf "  golden rows: %d/%d reproduce (via the registry)@,"
    golden_ok (List.length r.golden);
  List.iter
    (fun (g : golden_result) ->
      if not g.ok then
        Format.fprintf ppf "  GOLDEN FAIL %s: expected %.17g, got %.17g@,"
          g.label g.expected g.actual)
    r.golden;
  let cross_ok =
    List.length (List.filter (fun (c : cross_result) -> c.ok) r.cross)
  in
  Format.fprintf ppf "  cross-method sanity: %d/%d hold@," cross_ok
    (List.length r.cross);
  List.iter
    (fun (c : cross_result) ->
      if not c.ok then
        Format.fprintf ppf "  CROSS FAIL %s: %s@," c.label c.detail)
    r.cross;
  List.iter
    (fun f ->
      Format.fprintf ppf
        "  FAIL %s at %a (shrunk to %a): |delta| %.3g > %.3g -- %s@," f.check
        Sweep.pp_case f.case Sweep.pp_case f.shrunk f.delta f.bound f.detail)
    r.findings;
  Format.fprintf ppf "%s@]"
    (if r.passed then "all oracles agree" else "ORACLE DISAGREEMENT")

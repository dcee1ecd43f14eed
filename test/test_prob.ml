open Mae_prob
module S = Mae_test_support.Support

(* Comb *)

let test_log_factorial () =
  S.check_float "0!" 0. (Comb.log_factorial 0);
  S.check_float "1!" 0. (Comb.log_factorial 1);
  S.check_float "5!" (Float.log 120.) (Comb.log_factorial 5);
  (* table/Stirling boundary continuity *)
  S.check_close ~rel:1e-8 "large n"
    (Comb.log_factorial 4095 +. Float.log 4096.)
    (Comb.log_factorial 4096);
  S.raises_invalid (fun () -> Comb.log_factorial (-1))

let test_choose () =
  S.check_float "C(5,2)" 10. (Comb.choose 5 2);
  S.check_float "C(10,0)" 1. (Comb.choose 10 0);
  S.check_float "C(10,10)" 1. (Comb.choose 10 10);
  S.check_float "C(4,7)=0" 0. (Comb.choose 4 7);
  S.check_float "C(4,-1)=0" 0. (Comb.choose 4 (-1));
  S.check_close ~rel:1e-9 "C(60,30) via logs" 1.18264581564861424e17
    (Comb.choose 60 30)

(* Regression: the old [choose] switched to exp/log at n = 31 even
   though 63-bit ints hold every C(n, k) up to n = 64 exactly, so
   C(31, 15) came back 300540194.99999994.  It must be exact now, and
   the exact-to-logarithmic hand-off (wherever it lands) must be
   continuous under Pascal's rule. *)
let test_choose_exact_through_word_size () =
  S.check_float ~eps:0. "C(31,15)" 300540195. (Comb.choose 31 15);
  S.check_float ~eps:0. "C(32,16)" 601080390. (Comb.choose 32 16);
  S.check_float ~eps:0. "C(33,16)" 1166803110. (Comb.choose 33 16);
  (* every value that fits an OCaml int is exact, right across the old
     n = 30/31 cliff *)
  for n = 28 to 60 do
    let k = n / 2 in
    S.check_float ~eps:0.
      (Printf.sprintf "C(%d,%d) exact" n k)
      (Float.of_int (Comb.choose_int n k))
      (Comb.choose n k)
  done;
  (* Pascal continuity across the exact-to-log switch: C(65,k) mixes
     exact C(64,.) operands with a possibly-logarithmic result *)
  for n = 64 to 66 do
    S.check_close ~rel:1e-12
      (Printf.sprintf "pascal at n=%d" n)
      (Comb.choose (n - 1) 31 +. Comb.choose (n - 1) 32)
      (Comb.choose n 32)
  done;
  (* and across the log_factorial table/Stirling switch at 4096 *)
  for n = 4095 to 4097 do
    S.check_close ~rel:1e-9
      (Printf.sprintf "pascal at n=%d" n)
      (Comb.choose (n - 1) 99 +. Comb.choose (n - 1) 100)
      (Comb.choose n 100)
  done

let test_choose_int () =
  Alcotest.(check int) "C(10,3)" 120 (Comb.choose_int 10 3);
  Alcotest.(check int) "C(52,5)" 2598960 (Comb.choose_int 52 5);
  Alcotest.(check int) "out of range" 0 (Comb.choose_int 3 5)

let test_surjections () =
  S.check_float "surj(3,1)" 1. (Comb.surjections 3 1);
  S.check_float "surj(3,2)" 6. (Comb.surjections 3 2);
  S.check_float "surj(3,3)" 6. (Comb.surjections 3 3);
  S.check_float "surj(2,3)" 0. (Comb.surjections 2 3);
  S.check_float "surj(0,0)" 1. (Comb.surjections 0 0);
  S.check_float "surj(4,2)" 14. (Comb.surjections 4 2)

let test_paper_b_matches_surjections () =
  for k = 1 to 8 do
    for i = 1 to k do
      S.check_close ~rel:1e-9
        (Printf.sprintf "b_%d(%d)" k i)
        (Comb.surjections k i)
        (Comb.paper_b ~k i)
    done
  done

let test_float_pow () =
  S.check_float "x^0" 1. (Comb.float_pow 3. 0);
  S.check_float "2^10" 1024. (Comb.float_pow 2. 10);
  S.check_float "0.5^3" 0.125 (Comb.float_pow 0.5 3);
  S.raises_invalid (fun () -> Comb.float_pow 2. (-1))

(* The table behind [log_factorial] is built eagerly at module init, so
   hammering it from several domains at once must neither crash (the old
   [lazy] table could raise [Lazy.Undefined] under a forcing race) nor
   return anything but the values the main domain sees. *)
let test_log_factorial_domains () =
  let expected = Array.init 5000 Comb.log_factorial in
  let hammer () =
    let ok = ref true in
    for _pass = 1 to 50 do
      for n = 0 to Array.length expected - 1 do
        if not (Float.equal (Comb.log_factorial n) expected.(n)) then
          ok := false
      done
    done;
    !ok
  in
  let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d sees the shared table" i)
        true (Domain.join d))
    domains

(* Kernel_cache: a cache hit must equal a fresh computation, for both
   kernels and across the whole (rows, degree) plane the estimators
   touch. *)

let test_kernel_cache_matches_fresh () =
  Kernel_cache.clear ();
  Alcotest.(check bool) "cache enabled" true (Kernel_cache.enabled ());
  List.iter
    (fun (model, mname) ->
      for rows = 1 to 12 do
        for degree = 2 to 16 do
          let name = Printf.sprintf "%s span n=%d D=%d" mname rows degree in
          let fresh =
            Dist.expectation_ceil
              (Kernel_cache.row_span_dist_uncached ~model ~rows ~degree)
          in
          (* first call fills the table, second call must hit it *)
          let filled = Kernel_cache.expected_span ~model ~rows ~degree in
          let hit = Kernel_cache.expected_span ~model ~rows ~degree in
          Alcotest.(check int) (name ^ " E(i)") fresh filled;
          Alcotest.(check int) (name ^ " E(i) (hit)") fresh hit
        done
      done)
    [ (Kernel_cache.Paper, "paper"); (Kernel_cache.Exact, "exact") ];
  List.iter
    (fun net_count ->
      for rows = 1 to 12 do
        let name = Printf.sprintf "feed nets=%d n=%d" net_count rows in
        let fresh =
          Dist.expectation_ceil
            (Kernel_cache.feed_through_dist_uncached ~net_count ~rows)
        in
        let filled = Kernel_cache.expected_feed_throughs ~net_count ~rows in
        let hit = Kernel_cache.expected_feed_throughs ~net_count ~rows in
        Alcotest.(check int) (name ^ " E(M)") fresh filled;
        Alcotest.(check int) (name ^ " E(M) (hit)") fresh hit
      done)
    [ 1; 5; 50; 200 ];
  let s = Kernel_cache.stats () in
  Alcotest.(check bool) "hits were recorded" true (s.hits > 0);
  Alcotest.(check bool) "entries resident" true (s.entries > 0);
  Kernel_cache.clear ();
  let cleared = Kernel_cache.stats () in
  Alcotest.(check int) "clear drops entries" 0 cleared.entries;
  Alcotest.(check int) "clear resets hits" 0 cleared.hits

(* The tables keep integers, not distributions: 1000 distinct
   feed-through keys over 20k-net modules (each a B(H, p) of H + 1
   floats when built) must leave under 1 MiB live once collected. *)
let test_kernel_cache_retains_integers () =
  Kernel_cache.clear ();
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for net_count = 20_000 to 20_199 do
    for rows = 10 to 14 do
      ignore (Kernel_cache.expected_feed_throughs ~net_count ~rows)
    done
  done;
  Gc.full_major ();
  let grown = ((Gc.stat ()).live_words - before) * (Sys.word_size / 8) in
  let entries = (Kernel_cache.stats ()).entries in
  Kernel_cache.clear ();
  if grown >= 1 lsl 20 then
    Alcotest.failf "1000 keys kept %d live bytes (bound 1 MiB)" grown;
  Alcotest.(check int) "1000 keys resident" 1000 entries

(* The locked tables under real contention: four domains hammer a
   shared key plane (every insert raced) plus a private plane each
   (uncontended inserts), checking every returned expectation against
   the uncached reference.  Afterwards the accounting must add up
   exactly: every lookup was either a hit or a miss, races are a
   subset of misses, and the tables hold exactly the distinct keys
   touched. *)
let fresh_span model ~rows ~degree =
  Dist.expectation_ceil
    (Kernel_cache.row_span_dist_uncached ~model ~rows ~degree)

let test_kernel_cache_hammer () =
  Kernel_cache.clear ();
  let passes = 20 in
  let shared_rows = (2, 9) and shared_degs = (2, 5) in
  let work w () =
    let bad = ref 0 in
    let check model ~rows ~degree =
      let got = Kernel_cache.expected_span ~model ~rows ~degree in
      if got <> fresh_span model ~rows ~degree then incr bad
    in
    for _pass = 1 to passes do
      (* shared plane: all four domains fight over these keys *)
      for rows = fst shared_rows to snd shared_rows do
        for degree = fst shared_degs to snd shared_degs do
          check Kernel_cache.Paper ~rows ~degree
        done
      done;
      (* private plane: rows disjoint per domain, never contended *)
      for degree = 2 to 8 do
        check Kernel_cache.Exact ~rows:(20 + w) ~degree
      done
    done;
    !bad
  in
  let domains = List.init 4 (fun w -> Domain.spawn (work w)) in
  let bad_counts = List.map Domain.join domains in
  List.iteri
    (fun i bad ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d saw only reference values" i)
        0 bad)
    bad_counts;
  let shared_keys =
    (snd shared_rows - fst shared_rows + 1)
    * (snd shared_degs - fst shared_degs + 1)
  in
  let private_keys = 4 * 7 in
  let lookups = 4 * passes * (shared_keys + private_keys / 4) in
  let s = Kernel_cache.stats () in
  Alcotest.(check int)
    "every lookup was a hit or a miss" lookups (s.hits + s.misses);
  Alcotest.(check bool)
    "misses cover every distinct key" true
    (s.misses >= shared_keys + private_keys);
  Alcotest.(check bool) "races are a subset of misses" true
    (s.races <= s.misses);
  Alcotest.(check int)
    "tables hold exactly the distinct keys" (shared_keys + private_keys)
    s.entries

(* A live domain's hits reach [stats] as they happen: the domain never
   misses, exits or flushes before the main domain reads them. *)
let test_kernel_cache_live_domain_hits () =
  Alcotest.(check bool) "cache enabled" true (Kernel_cache.enabled ());
  let lookup () =
    ignore
      (Kernel_cache.expected_span ~model:Kernel_cache.Paper ~rows:6 ~degree:3)
  in
  lookup ();
  let before = (Kernel_cache.stats ()).hits in
  let finish =
    S.live_domain (fun () ->
        for _ = 1 to 5 do
          lookup ()
        done)
  in
  let hits = (Kernel_cache.stats ()).hits - before in
  finish ();
  Alcotest.(check int) "live domain's hits counted" 5 hits

(* [clear] while four domains keep reading: no crash, no torn value --
   only reference values ever come back, and once the dust settles a
   final clear leaves empty tables. *)
let test_kernel_cache_clear_under_load () =
  Kernel_cache.clear ();
  let stop = Atomic.make false in
  let reader () =
    let bad = ref 0 in
    while not (Atomic.get stop) do
      for rows = 2 to 8 do
        for degree = 2 to 5 do
          let got =
            Kernel_cache.expected_span ~model:Kernel_cache.Paper ~rows ~degree
          in
          if got <> fresh_span Kernel_cache.Paper ~rows ~degree then incr bad
        done
      done
    done;
    !bad
  in
  let domains = List.init 4 (fun _ -> Domain.spawn reader) in
  for _ = 1 to 100 do
    Kernel_cache.clear ();
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  List.iteri
    (fun i bad ->
      Alcotest.(check int)
        (Printf.sprintf "reader %d saw only reference values" i)
        0 (Domain.join bad))
    domains;
  Kernel_cache.clear ();
  let s = Kernel_cache.stats () in
  Alcotest.(check int) "final clear leaves empty tables" 0 s.entries

(* Rng *)

let test_rng_deterministic () =
  let a = S.rng 42 and b = S.rng 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = S.rng 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.uniform r in
    if f < 0. || f >= 1. then Alcotest.failf "uniform out of bounds: %f" f
  done;
  S.raises_invalid (fun () -> Rng.int r 0)

let test_rng_uniformity () =
  let r = S.rng 11 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = Float.of_int c /. Float.of_int trials in
      if Float.abs (frac -. 0.1) > 0.01 then
        Alcotest.failf "bucket %d has fraction %f" i frac)
    counts

let test_rng_split_independent () =
  let parent = S.rng 3 in
  let child = Rng.split parent in
  let a = List.init 50 (fun _ -> Rng.int parent 1000) in
  let b = List.init 50 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" false (a = b)

let test_rng_shuffle_permutes () =
  let r = S.rng 5 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* Dist *)

let test_dist_normalizes () =
  let d = Dist.of_weights [ (1, 2.); (2, 6.) ] in
  S.check_float "P(1)" 0.25 (Dist.prob d 1);
  S.check_float "P(2)" 0.75 (Dist.prob d 2);
  S.check_float "P(3)" 0. (Dist.prob d 3);
  S.check_float "mass error" 0. (Dist.total_mass_error d);
  S.raises_invalid (fun () -> Dist.of_weights []);
  S.raises_invalid (fun () -> Dist.of_weights [ (1, -1.) ]);
  S.raises_invalid (fun () -> Dist.of_weights [ (1, 0.) ])

(* Regression: [of_weights] used to keep duplicate outcomes as separate
   entries, so [prob] (binary search -> first hit) under-reported the
   outcome's mass while [expectation] counted all of it. Duplicates must
   merge at construction. *)
let test_dist_merges_duplicates () =
  let d = Dist.of_weights [ (1, 2.); (2, 6.); (1, 2.) ] in
  Alcotest.(check (list int)) "support deduplicated" [ 1; 2 ] (Dist.support d);
  S.check_float "P(1) = merged mass" 0.4 (Dist.prob d 1);
  S.check_float "P(2)" 0.6 (Dist.prob d 2);
  S.check_float "E consistent with prob" 1.6 (Dist.expectation d);
  S.check_float "mass error" 0. (Dist.total_mass_error d);
  (* merging happens before normalization, so order cannot matter *)
  let d' = Dist.of_weights [ (2, 3.); (1, 2.); (2, 3.); (1, 2.) ] in
  List.iter
    (fun o -> S.check_float (Printf.sprintf "order-free P(%d)" o)
        (Dist.prob d o) (Dist.prob d' o))
    (Dist.support d)

let test_dist_expectation () =
  let d = Dist.of_weights [ (1, 1.); (3, 1.) ] in
  S.check_float "E" 2. (Dist.expectation d);
  Alcotest.(check int) "ceil of exact" 2 (Dist.expectation_ceil d);
  let d2 = Dist.of_weights [ (1, 3.); (2, 1.) ] in
  Alcotest.(check int) "ceil rounds up" 2 (Dist.expectation_ceil d2)

(* Regression: [expectation_ceil] used a fixed 1e-9 slack, which both
   swallowed genuine excesses just above an integer and was too small
   for wide distributions whose accumulated rounding error exceeds it.
   The slack now scales with the distribution's own mass error. *)
let test_dist_expectation_ceil_slack () =
  (* a genuine excess of 4e-10 over 2 must still round up: the fixed
     1e-9 slack used to eat it and return 2 *)
  let d = Dist.of_weights [ (2, 1. -. 4e-10); (3, 4e-10) ] in
  Alcotest.(check int) "tiny real excess rounds up" 3 (Dist.expectation_ceil d);
  (* exact integer expectations must not round up on rounding noise,
     even for distributions with many terms *)
  Alcotest.(check int) "binomial mean 100 * 0.02" 2
    (Dist.expectation_ceil (Dist.binomial ~n:100 ~p:0.02));
  Alcotest.(check int) "binomial mean 400 * 0.25" 100
    (Dist.expectation_ceil (Dist.binomial ~n:400 ~p:0.25));
  Alcotest.(check int) "two-point integer mean" 2
    (Dist.expectation_ceil (Dist.of_weights [ (1, 1.); (3, 1.) ]))

let test_dist_mode_support () =
  let d = Dist.of_weights [ (5, 1.); (2, 3.); (9, 2.) ] in
  Alcotest.(check int) "mode" 2 (Dist.mode d);
  Alcotest.(check (list int)) "support sorted" [ 2; 5; 9 ] (Dist.support d)

let test_binomial () =
  let d = Dist.binomial ~n:10 ~p:0.3 in
  S.check_float ~eps:1e-9 "mean" 3. (Dist.expectation d);
  S.check_float ~eps:1e-9 "mass" 0. (Dist.total_mass_error d);
  S.check_close ~rel:1e-9 "P(0)" (0.7 ** 10.) (Dist.prob d 0);
  let d0 = Dist.binomial ~n:5 ~p:0. in
  S.check_float "degenerate p=0" 1. (Dist.prob d0 0);
  let d1 = Dist.binomial ~n:5 ~p:1. in
  S.check_float "degenerate p=1" 1. (Dist.prob d1 5);
  S.raises_invalid (fun () -> Dist.binomial ~n:3 ~p:1.5)

let test_dist_sampling_matches () =
  let d = Dist.of_weights [ (0, 1.); (1, 2.); (2, 1.) ] in
  let r = S.rng 21 in
  let counts = Array.make 3 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let v = Dist.sample d r in
    counts.(v) <- counts.(v) + 1
  done;
  S.check_close ~rel:0.05 "P(1) sampled" 0.5
    (Float.of_int counts.(1) /. Float.of_int trials)

(* Stats *)

let test_stats_basics () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  S.check_float "mean" 2.5 (Stats.mean xs);
  S.check_float "variance" 1.25 (Stats.variance xs);
  S.check_float "median even" 2.5 (Stats.median xs);
  S.check_float "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  let lo, hi = Stats.min_max xs in
  S.check_float "min" 1. lo;
  S.check_float "max" 4. hi;
  S.check_float "mean_abs" 2. (Stats.mean_abs [ -1.; 3.; -2. ]);
  S.check_float "relative_error" 0.5 (Stats.relative_error ~estimated:3. ~real:2.);
  S.raises_invalid (fun () -> Stats.mean []);
  S.raises_invalid (fun () -> Stats.relative_error ~estimated:1. ~real:0.)

let test_wilson_interval () =
  (* symmetric at p-hat = 1/2: known closed-form value for z=1.96, n=100 *)
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  S.check_close ~rel:1e-4 "lo at p=0.5" 0.40383 lo;
  S.check_close ~rel:1e-4 "hi at p=0.5" 0.59617 hi;
  (* stays meaningful at the extremes, unlike Wald *)
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:50 ~z:4. in
  S.check_float "0 successes: lo = 0" 0. lo0;
  Alcotest.(check bool) "0 successes: hi > 0" true (hi0 > 0.);
  let lo1, hi1 = Stats.wilson_interval ~successes:50 ~trials:50 ~z:4. in
  Alcotest.(check bool) "all successes: lo < 1" true (lo1 < 1.);
  S.check_float "all successes: hi = 1" 1. hi1;
  (* wider z, wider interval, always inside [0, 1] *)
  let lo2, hi2 = Stats.wilson_interval ~successes:3 ~trials:10 ~z:1. in
  let lo4, hi4 = Stats.wilson_interval ~successes:3 ~trials:10 ~z:4. in
  Alcotest.(check bool) "z grows the interval" true (lo4 < lo2 && hi4 > hi2);
  Alcotest.(check bool) "clamped" true (lo4 >= 0. && hi4 <= 1.);
  S.raises_invalid (fun () -> Stats.wilson_interval ~successes:1 ~trials:0 ~z:2.);
  S.raises_invalid (fun () -> Stats.wilson_interval ~successes:5 ~trials:4 ~z:2.);
  S.raises_invalid (fun () -> Stats.wilson_interval ~successes:(-1) ~trials:4 ~z:2.);
  S.raises_invalid (fun () -> Stats.wilson_interval ~successes:1 ~trials:4 ~z:0.)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

(* Montecarlo: the paper's "numerical simulation results" *)

let test_montecarlo_span_matches_occupancy () =
  let rows = 4 and degree = 3 and trials = 200_000 in
  let d = Montecarlo.empirical_rows_used ~rng:(S.rng 1) ~trials ~rows ~degree in
  let exact i =
    Comb.choose rows i *. Comb.surjections degree i
    /. Comb.float_pow (Float.of_int rows) degree
  in
  for i = 1 to 3 do
    S.check_close ~rel:0.03
      (Printf.sprintf "P(span=%d)" i)
      (exact i) (Dist.prob d i)
  done

let test_montecarlo_feed_central_max () =
  List.iter
    (fun (rows, degree) ->
      let stats =
        Montecarlo.simulate_net ~rng:(S.rng 2) ~trials:60_000 ~rows ~degree
      in
      let best = Montecarlo.argmax_feed_through stats in
      let central = (rows + 1) / 2 in
      if best <> central && best <> central + 1 then
        Alcotest.failf "rows=%d degree=%d: argmax %d not central" rows degree
          best)
    [ (3, 2); (5, 2); (5, 4); (7, 3); (9, 5); (11, 2) ]

(* Regression: [argmax_feed_through] used a plain [>] scan while
   [Feedthrough.argmax_row] breaks ties toward the lower row with a
   1e-15 tolerance, so on an even row count the two could disagree about
   which central row "wins" on one-ulp noise.  0.1 +. 0.2 exceeds 0.3 by
   one ulp; with the shared tolerance the earlier row must keep the
   title. *)
let test_argmax_feed_through_tie () =
  let stats =
    {
      Montecarlo.rows_used = Dist.of_weights [ (1, 1.) ];
      feed_through = [| 0.1; 0.3; 0.1 +. 0.2; 0.1 |];
    }
  in
  Alcotest.(check int) "one-ulp tie resolves low" 2
    (Montecarlo.argmax_feed_through stats);
  let clear =
    {
      Montecarlo.rows_used = Dist.of_weights [ (1, 1.) ];
      feed_through = [| 0.1; 0.3; 0.4; 0.1 |];
    }
  in
  Alcotest.(check int) "real improvement still wins" 3
    (Montecarlo.argmax_feed_through clear)

let test_simulate_counts_totals () =
  let trials = 5_000 and rows = 5 and degree = 3 in
  let c = Montecarlo.simulate_counts ~rng:(S.rng 9) ~trials ~rows ~degree in
  Alcotest.(check int) "span tallies cover every trial" trials
    (Array.fold_left ( + ) 0 c.span_counts);
  Alcotest.(check int) "span 0 never happens" 0 c.span_counts.(0);
  Array.iter
    (fun k ->
      Alcotest.(check bool) "feed tally within trials" true
        (k >= 0 && k <= trials))
    c.feed_counts;
  (* the normalized view must be exactly the tallies over trials *)
  let stats = Montecarlo.stats_of_counts c in
  Array.iteri
    (fun i k ->
      S.check_float
        (Printf.sprintf "feed freq row %d" (i + 1))
        (Float.of_int k /. Float.of_int trials)
        stats.feed_through.(i))
    c.feed_counts;
  for s = 1 to rows do
    S.check_float
      (Printf.sprintf "span freq %d" s)
      (Float.of_int c.span_counts.(s) /. Float.of_int trials)
      (Dist.prob stats.rows_used s)
  done;
  (* same seed, same stream: simulate_net is the composition *)
  let direct = Montecarlo.simulate_net ~rng:(S.rng 9) ~trials ~rows ~degree in
  Array.iteri
    (fun i p -> S.check_float "simulate_net = composition" p
        direct.feed_through.(i))
    stats.feed_through;
  (* interval helpers agree with Stats.wilson_interval on the tallies *)
  let lo, hi = Montecarlo.feed_interval c ~z:4. ~row:3 in
  let lo', hi' =
    Stats.wilson_interval ~successes:c.feed_counts.(2) ~trials ~z:4.
  in
  S.check_float "feed_interval lo" lo' lo;
  S.check_float "feed_interval hi" hi' hi;
  let slo, shi = Montecarlo.span_interval c ~z:4. ~span:2 in
  let slo', shi' =
    Stats.wilson_interval ~successes:c.span_counts.(2) ~trials ~z:4.
  in
  S.check_float "span_interval lo" slo' slo;
  S.check_float "span_interval hi" shi' shi

let test_montecarlo_validation () =
  S.raises_invalid (fun () ->
      Montecarlo.simulate_net ~rng:(S.rng 1) ~trials:0 ~rows:3 ~degree:2);
  S.raises_invalid (fun () ->
      Montecarlo.simulate_net ~rng:(S.rng 1) ~trials:1 ~rows:0 ~degree:2);
  S.raises_invalid (fun () ->
      Montecarlo.simulate_net ~rng:(S.rng 1) ~trials:1 ~rows:3 ~degree:0)

(* Properties *)

let props =
  let open QCheck2.Gen in
  [
    S.qtest "pascal rule" (pair (int_range 1 40) (int_range 1 39))
      (fun (n, k) ->
        let k = Stdlib.min k (n - 1) in
        if k < 1 then true
        else
          S.approx ~eps:1e-9
            (Comb.choose n k)
            (Comb.choose (n - 1) (k - 1) +. Comb.choose (n - 1) k));
    S.qtest "surjection recurrence" (pair (int_range 1 10) (int_range 1 10))
      (fun (d, i) ->
        if i > d + 1 then true
        else
          S.approx ~eps:1e-9
            (Comb.surjections (d + 1) i)
            (Float.of_int i
            *. (Comb.surjections d i +. Comb.surjections d (i - 1))));
    S.qtest "sum of occupancy counts = n^d"
      (pair (int_range 1 8) (int_range 1 8))
      (fun (n, d) ->
        let total = ref 0. in
        for i = 1 to n do
          total := !total +. (Comb.choose n i *. Comb.surjections d i)
        done;
        S.approx ~eps:1e-9 !total (Comb.float_pow (Float.of_int n) d));
    S.qtest "binomial mean = np" (pair (int_range 0 40) (float_range 0. 1.))
      (fun (n, p) ->
        S.approx ~eps:1e-6
          (Dist.expectation (Dist.binomial ~n ~p))
          (Float.of_int n *. p));
    S.qtest "rng int within bounds" (pair int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = S.rng seed in
        let v = Rng.int r bound in
        v >= 0 && v < bound);
    S.qtest "expectation within support range"
      (list_size (int_range 1 10) (pair (int_range 0 20) (float_range 0.1 5.)))
      (fun weights ->
        match Dist.of_weights weights with
        | d ->
            let e = Dist.expectation d in
            let support = Dist.support d in
            let lo = List.fold_left Stdlib.min max_int support in
            let hi = List.fold_left Stdlib.max min_int support in
            e >= Float.of_int lo -. 1e-9 && e <= Float.of_int hi +. 1e-9
        | exception Invalid_argument _ -> true);
  ]

let () =
  Alcotest.run "prob"
    [
      ( "comb",
        [
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "choose exact through word size" `Quick
            test_choose_exact_through_word_size;
          Alcotest.test_case "choose_int" `Quick test_choose_int;
          Alcotest.test_case "surjections" `Quick test_surjections;
          Alcotest.test_case "paper_b = surjections" `Quick
            test_paper_b_matches_surjections;
          Alcotest.test_case "float_pow" `Quick test_float_pow;
          Alcotest.test_case "log_factorial from 4 domains" `Quick
            test_log_factorial_domains;
        ] );
      ( "kernel_cache",
        [
          Alcotest.test_case "locked cache 4-domain hammer" `Slow
            test_kernel_cache_hammer;
          Alcotest.test_case "clear under concurrent lookups" `Slow
            test_kernel_cache_clear_under_load;
          Alcotest.test_case "cache hit = fresh computation" `Quick
            test_kernel_cache_matches_fresh;
          Alcotest.test_case "live domain's hits counted at once" `Quick
            test_kernel_cache_live_domain_hits;
          Alcotest.test_case "1000 large keys retain under 1 MiB" `Quick
            test_kernel_cache_retains_integers;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normalizes" `Quick test_dist_normalizes;
          Alcotest.test_case "merges duplicate outcomes" `Quick
            test_dist_merges_duplicates;
          Alcotest.test_case "expectation" `Quick test_dist_expectation;
          Alcotest.test_case "expectation_ceil slack scales" `Quick
            test_dist_expectation_ceil_slack;
          Alcotest.test_case "mode/support" `Quick test_dist_mode_support;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "sampling" `Quick test_dist_sampling_matches;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "span matches occupancy" `Slow
            test_montecarlo_span_matches_occupancy;
          Alcotest.test_case "central row max" `Slow
            test_montecarlo_feed_central_max;
          Alcotest.test_case "argmax tie resolves low" `Quick
            test_argmax_feed_through_tie;
          Alcotest.test_case "counts and intervals" `Quick
            test_simulate_counts_totals;
          Alcotest.test_case "validation" `Quick test_montecarlo_validation;
        ] );
      ("properties", props);
    ]

(* Tests for the benchmark's statistics helpers (perfbench/stats.ml). *)

open Perfbench_stats.Stats

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let range n = Array.init n (fun i -> Float.of_int (i + 1))

let () =
  (* nearest rank: p99 of 1..1000 is 990, leaving exactly 10 beyond *)
  check "p99 of 1000" (quantile (range 1000) 990 = 990.);
  check "beyond p99 of 1000" (beyond 1000 990 = 10);
  check "median of 1..5" (median [| 5.; 1.; 4.; 2.; 3. |] = 3.);
  check "median of one" (median [| 7. |] = 7.);
  check "mean" (mean [| 1.; 2.; 3.; 6. |] = 3.);
  (* one noisy window out of five does not move the median of medians *)
  let steady = Array.init 500 (fun i -> 1. +. Float.of_int (i mod 3)) in
  let noisy = Array.mapi (fun i x -> if i >= 400 then 100. *. x else x) steady in
  check "median of windows ignores a noisy window"
    (median_of_windows ~windows:5 noisy = 2.);
  check "median of windows, uneven split"
    (* chunks [1;2] and [3;10;20]: medians 1 and 10; nearest-rank picks 1 *)
    (median_of_windows ~windows:2 [| 1.; 2.; 3.; 10.; 20. |] = 1.);
  check "median of windows needs samples"
    (match median_of_windows ~windows:3 [| 1. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  (* the tail percentile needs 10 samples beyond it *)
  check "tail 1000 -> p99" (tail (range 1000) = Some (990, 990.));
  check "tail 999 -> p95" (tail (range 999) = Some (950, 950.));
  check "tail 10000 -> p99.9" (tail (range 10000) = Some (999, 9990.));
  check "tail 200 -> p95" (tail (range 200) = Some (950, 190.));
  check "tail 40 -> p75" (tail (range 40) = Some (750, 30.));
  check "tail 20 -> p50" (tail (range 20) = Some (500, 10.));
  check "tail 19 -> none" (tail (range 19) = None);
  check "tail unsorted input"
    (tail (Array.of_list (List.rev (Array.to_list (range 1000))))
    = Some (990, 990.));
  check "tail min_beyond 1" (tail ~min_beyond:1 (range 100) = Some (990, 99.))

let span ?parent id name t0 t1 = { id; parent; name; rid = 0; t0; t1 }

let self_of name spans = List.assoc name (self_by_name spans)
let close a b = Float.abs (a -. b) < 1e-12

let () =
  (* root 0..10 with children 1..3 and 2..6 (overlapping: union 1..6)
     and a grandchild 4..5 inside the second child *)
  let spans =
    [
      span 1 "root" 0. 10.;
      span ~parent:1 2 "a" 1. 3.;
      span ~parent:1 3 "b" 2. 6.;
      span ~parent:3 4 "c" 4. 5.;
    ]
  in
  check "root self = 10 - union(1..6)" (close (self_of "root" spans) 5.);
  check "b self excludes grandchild" (close (self_of "b" spans) 3.);
  check "leaf self = duration" (close (self_of "c" spans) 1.);
  check "selfs sum to root duration"
    (close (List.fold_left (fun acc (_, s) -> acc +. s) 0. (self_by_name spans))
       (* overlap of a and b (2..3) is counted by both children *)
       11.);
  (* a child sticking out of its parent is clipped *)
  let clipped = [ span 1 "p" 0. 2.; span ~parent:1 2 "k" 1. 5. ] in
  check "clipped child" (close (self_of "p" clipped) 1.);
  (* the same name across requests sums *)
  let two = [ span 1 "x" 0. 1.; span 2 "x" 5. 7. ] in
  check "sum per name" (close (self_of "x" two) 3.)

let rung ?(backlog = 0) rate lat =
  { rate; latencies = lat; backlog_end = backlog; achieved = rate }

let () =
  let limit = 0.010 in
  let fast = Array.make 1000 0.002 and slow = Array.make 1000 0.050 in
  let tail_miss = Array.append (Array.make 980 0.002) (Array.make 20 0.050) in
  let shed = Array.append (Array.make 980 0.002) (Array.make 20 Float.infinity) in
  check "fast rung passes" (rung_passes ~limit (rung 100. fast));
  check "p99 over limit fails" (not (rung_passes ~limit (rung 100. tail_miss)));
  check "failures count as misses" (not (rung_passes ~limit (rung 100. shed)));
  check "growing backlog fails"
    (not (rung_passes ~limit (rung ~backlog:2 100. fast)));
  check "backlog within rate*limit passes"
    (rung_passes ~limit (rung ~backlog:1 100. fast));
  let rate r = Option.map (fun (r : rung) -> r.rate) r in
  check "highest passing below first failure"
    (rate
       (max_rate ~limit
          [ rung 400. fast; rung 100. fast; rung 800. slow; rung 200. fast ])
    = Some 400.);
  check "a pass above a failure does not count"
    (rate (max_rate ~limit [ rung 100. fast; rung 200. slow; rung 400. fast ])
    = Some 100.);
  check "no passing rung" (max_rate ~limit [ rung 100. slow ] = None);
  check "empty ladder" (max_rate ~limit [] = None);
  check "empty rung fails" (not (rung_passes ~limit (rung 100. [||])))

let () =
  check "sum check exact" (close (unattributed ~total:10. [ 4.; 6. ]) 0.);
  check "sum check remainder" (close (unattributed ~total:10. [ 4.; 5. ]) 0.1);
  check "sum check overshoot" (close (unattributed ~total:10. [ 8.; 4. ]) (-0.2));
  check "sum check needs a total"
    (match unattributed ~total:0. [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  if !failures > 0 then begin
    Printf.printf "%d perfbench stats check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench stats: all checks passed"

(* Perf regression gate: re-measure the engine's throughput and
   compare it against BENCH_history.jsonl entries from the same host
   profile.  A drop of more than 20% in [seq] or in the best parallel
   run fails the build.  So does a p99 GC pause (the median over three
   passes) more than 50% above its baseline.  That check runs the best
   parallel run that fits the host (jobs at most its recommended domain
   count), or [seq] when none does.  Every baseline, throughput and
   pause alike, is the median of that run's recorded figure over the
   last three same-host entries that carry it: a single invocation's
   figures are bimodal on a small shared host (parallel throughput
   there reads 4 000 or 15 000 modules/s from one process to the next),
   so one entry is no baseline.  The newest entry names the runs and
   the workload size.
   An empty history, or one whose entries all come from other host
   profiles (recommended domain count), skips the gate with a logged
   reason -- numbers from another machine prove nothing about this
   one.

   Noise control on shared/virtualized runners: each configuration is
   measured three times in this one process and the median pass is
   compared.  The engine bench records every run as the median of the
   same number of passes, with the runtime lens off for throughput and
   on for the p99 pause, as measured here, so baseline and
   re-measurement are the same statistic. *)

module Json = Mae_obs.Json

let threshold = 0.80
let passes = 3

(* GC gate: fail when the measured p99 pause exceeds the baseline by
   more than 50%, with a small absolute slack so microsecond-scale
   baselines do not flap on scheduler noise. *)
let gc_threshold = 1.5
let gc_slack_s = 5e-5

(* same shape mix as bench/main.ml's engine workload, so the gate's
   modules/s is comparable with the history the bench appends *)
let workload ~modules =
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

let skip reason =
  Printf.printf "bench-gate: skipped (%s)\n" reason;
  exit 0

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* all parseable bench_engine entries, oldest first *)
let engine_entries lines =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Error _ -> None
      | Ok doc -> (
          match Json.member "source" doc with
          | Some (Json.String "bench_engine") -> Some doc
          | _ -> None))
    lines

let number_member name doc =
  Option.bind (Json.member name doc) Json.to_number

type run = { label : string; jobs : int; mps : float; gc_p99 : float option }

let run_of_json doc =
  match
    ( Option.bind (Json.member "label" doc) Json.to_string,
      number_member "jobs" doc,
      number_member "modules_per_s" doc )
  with
  | Some label, Some jobs, Some mps ->
      Some
        {
          label;
          jobs = Float.to_int jobs;
          mps;
          gc_p99 = number_member "gc_p99_pause_s" doc;
        }
  | _ -> None

(* [passes] runs of the workload, each from an empty E(i) table: each
   pass's modules/s and, while the runtime lens is on, that pass's own
   p99 GC pause.  Throughput is read with the lens off and pauses with
   it on, as bench/main.ml's [time_engine] records them. *)
let measure ~jobs ~registry circuits =
  List.init passes (fun _ ->
      Mae_prob.Occupancy.Table.clear Mae_prob.Occupancy.table;
      let (_, (stats : Mae_engine.stats)), p99 =
        Bench_history.History.with_own_gc_p99 (fun () ->
            Mae_engine.run_circuits_with_stats ~jobs ~registry circuits)
      in
      let mps =
        if stats.elapsed_s > 0. then
          Float.of_int stats.modules /. stats.elapsed_s
        else 0.
      in
      (mps, p99))

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_mps passes = median (List.map fst passes)

let () =
  let history_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else Bench_history.History.path
  in
  let entries = engine_entries (read_lines history_path) in
  if entries = [] then
    skip (Printf.sprintf "no bench_engine entry in %s" history_path);
  let here = Mae_engine.default_jobs () in
  let same_host e =
    match number_member "host_recommended_domains" e with
    | Some recorded -> Float.to_int recorded = here
    | None -> false
  in
  (* newest first; other machines' numbers are not a baseline here *)
  let host_entries = List.rev (List.filter same_host entries) in
  (* the newest entry names the runs and the workload size *)
  let entry =
    match host_entries with
    | [] ->
        skip
          (Printf.sprintf
             "no prior entry from a %d-domain host among %d bench_engine \
              entries in %s"
             here (List.length entries) history_path)
    | e :: _ -> e
  in
  let modules =
    match number_member "workload_modules" entry with
    | Some m when m > 0. -> Float.to_int m
    | _ -> skip "history entry lacks workload_modules"
  in
  let runs =
    match Option.bind (Json.member "runs" entry) Json.to_list with
    | Some l -> List.filter_map run_of_json l
    | None -> skip "history entry lacks runs"
  in
  let baseline_seq =
    match List.find_opt (fun r -> String.equal r.label "seq") runs with
    | Some r when r.mps > 0. -> r
    | _ -> skip "history entry lacks a seq run"
  in
  (* best parallel run on record among [fits], if any: compare like
     with like by re-measuring at the same jobs count *)
  let best_par fits =
    List.fold_left
      (fun acc r ->
        if
          String.length r.label >= 3
          && String.sub r.label 0 3 = "par"
          && fits r
        then
          match acc with
          | Some best when best.mps >= r.mps -> acc
          | _ -> Some r
        else acc)
      None runs
  in
  let baseline_par = best_par (fun _ -> true) in
  (* [field] of run [label] in the last three same-host entries that
     carry it, newest first *)
  let last_three label field =
    List.filteri
      (fun i _ -> i < 3)
      (List.filter_map
         (fun e ->
           Option.bind (Option.bind (Json.member "runs" e) Json.to_list)
             (List.find_map (fun r ->
                  match run_of_json r with
                  | Some r when String.equal r.label label -> field r
                  | _ -> None)))
         host_entries)
  in
  let baseline_mps label =
    let recorded = last_three label (fun r -> Some r.mps) in
    Printf.printf "bench-gate: %s baseline = median of %d entries (%s/s)\n"
      label (List.length recorded)
      (String.concat ", " (List.map (Printf.sprintf "%.0f") recorded));
    median recorded
  in
  let circuits = workload ~modules in
  let registry = Mae_tech.Registry.create () in
  Printf.printf
    "bench-gate: %d modules vs same-host history (threshold %.0f%%)\n%!"
    modules
    (100. *. (1. -. threshold));
  let seq = median_mps (measure ~jobs:1 ~registry circuits) in
  let verdicts = ref [] in
  let check label ~baseline ~current =
    let floor = baseline *. threshold in
    let ok = current >= floor in
    Printf.printf "  %-12s baseline %8.0f/s  now %8.0f/s  floor %8.0f/s  %s\n"
      label baseline current floor
      (if ok then "ok" else "REGRESSION");
    verdicts := ok :: !verdicts
  in
  check "seq" ~baseline:(baseline_mps "seq") ~current:seq;
  Option.iter
    (fun r ->
      let par = measure ~jobs:r.jobs ~registry circuits in
      check r.label ~baseline:(baseline_mps r.label) ~current:(median_mps par))
    baseline_par;
  (* GC gate: re-run the best parallel run that fits this host
     (seq when none does) three times under the runtime lens,
     each pass measuring its own pauses, and compare the median p99
     against the median of that run's recorded p99 over the last three
     same-host entries carrying one.  Missing baseline data skips this
     check only, with the reason logged -- the throughput verdicts
     above still decide. *)
  let gc_run =
    Option.value (best_par (fun r -> r.jobs <= here)) ~default:baseline_seq
  in
  (match last_three gc_run.label (fun r -> r.gc_p99) with
  | [] ->
      Printf.printf
        "bench-gate: gc check skipped (no same-host %s run has \
         gc_p99_pause_s)\n"
        gc_run.label
  | last -> (
      let baseline_p99 = median last in
      Printf.printf "bench-gate: gc baseline %s p99 = median of %d entries\n"
        gc_run.label (List.length last);
      ignore (Mae_obs.Runtime.start ());
      let gc_passes = measure ~jobs:gc_run.jobs ~registry circuits in
      Mae_obs.Runtime.stop ();
      match List.filter_map snd gc_passes with
      | [] ->
          print_endline
            "bench-gate: gc check skipped (no pauses observed this run)"
      | p99s ->
          let current = median p99s in
          let ceiling = (baseline_p99 *. gc_threshold) +. gc_slack_s in
          let ok = current <= ceiling in
          Printf.printf
            "  %-12s baseline %7.0fus  now %7.0fus  ceiling %7.0fus  %s\n"
            "gc_p99" (baseline_p99 *. 1e6) (current *. 1e6) (ceiling *. 1e6)
            (if ok then "ok" else "REGRESSION");
          verdicts := ok :: !verdicts));
  if List.for_all Fun.id !verdicts then print_endline "bench-gate: ok"
  else begin
    print_endline
      "bench-gate: regression against BENCH_history.jsonl -- engine \
       throughput dropped more than 20% or p99 GC pause grew more than 50%; \
       investigate (or re-baseline by re-running the engine bench on this \
       host)";
    exit 1
  end

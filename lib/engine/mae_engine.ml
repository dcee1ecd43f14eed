(* Baseline methodologies register at Mae_baselines.Methods init; this
   reference forces the linker to keep (and initialize) that unit, so
   every engine consumer can select them by name. *)
let () = Mae_baselines.Methods.ensure_registered ()

type error =
  | Driver_error of Mae.Driver.error
  | Crashed of { module_name : string; exn : string }

let pp_error ppf = function
  | Driver_error e -> Mae.Driver.pp_error ppf e
  | Crashed { module_name; exn } ->
      Format.fprintf ppf "module %s: estimator crashed: %s" module_name exn

type stats = {
  modules : int;
  ok : int;
  failed : int;
  jobs : int;
  elapsed_s : float;
  per_domain : int array;
}

(* --- registry instruments (always live; spans and latency sampling
   additionally honour Mae_obs.Control.enabled) --- *)

let modules_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_total"
    ~help:"Modules submitted to the batch engine"

let ok_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_ok_total"
    ~help:"Modules estimated successfully"

let failed_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_failed_total"
    ~help:"Modules that returned a driver error or crashed"

let queue_wait_gauge =
  Mae_obs.Metrics.gauge "mae_engine_queue_wait_seconds"
    ~help:
      "Longest delay between batch start and a worker claiming its first \
       module, over the most recent batch (domain spawn + scheduling cost)"

(* Observed only while telemetry is on, like spans. *)
let queue_wait_sketch =
  Mae_obs.Metrics.summary "mae_engine_queue_wait_seconds_summary"
    ~help:
      "Per-worker delay between batch start and first module claim \
       (GK sketch; one sample per worker per batch)"

let oversubscribed_gauge =
  Mae_obs.Metrics.gauge "mae_engine_jobs_oversubscribed"
    ~help:
      "Domains requested beyond Domain.recommended_domain_count in the most \
       recent batch (0 = batch fit the hardware)"

let pp_stats ppf s =
  Format.fprintf ppf
    "%d module(s) (%d ok, %d failed) on %d domain(s) in %.3f s (%.0f \
     modules/s); modules/domain [%s]"
    s.modules s.ok s.failed (Array.length s.per_domain) s.elapsed_s
    (if s.elapsed_s > 0. then Float.of_int s.modules /. s.elapsed_s else 0.)
    (String.concat " " (List.map string_of_int (Array.to_list s.per_domain)))

let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let resolve_jobs = function
  | None -> 1
  | Some 0 -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some j -> invalid_arg (Printf.sprintf "Mae_engine: jobs = %d" j) (* invariant *)

(* Spawning more domains than the hardware offers pessimizes hard --
   BENCH_engine.json records jobs:8 at 0.18x of sequential on a 1-core
   host -- so an oversubscribed batch is announced loudly (stderr once
   per process, a warn log record every batch) and exposed as the
   [mae_engine_jobs_oversubscribed] gauge.  The request is still
   honoured: benches measure oversubscription on purpose, and the
   determinism contract (same results for any [jobs]) must stay
   testable above the core count. *)
let oversubscription_announced = Atomic.make false

let check_oversubscription jobs =
  let recommended = default_jobs () in
  let over = Stdlib.max 0 (jobs - recommended) in
  Mae_obs.Metrics.set oversubscribed_gauge (Float.of_int over);
  if over > 0 then begin
    Mae_obs.Log.warn ~event:"engine.jobs_oversubscribed"
      [
        ("requested", Mae_obs.Log.Int jobs);
        ("recommended", Mae_obs.Log.Int recommended);
      ];
    if not (Atomic.exchange oversubscription_announced true) then
      Printf.eprintf
        "mae_engine: warning: --jobs %d exceeds the %d domain(s) this host \
         recommends; expect a slowdown, not a speedup (gauge \
         mae_engine_jobs_oversubscribed)\n%!"
        jobs recommended
  end

(* --- chunked claiming from one shared counter ---

   Every worker claims the next [max 1 (n / (8 * workers))] indices with
   one [fetch_and_add] on a counter shared by the whole batch, until the
   counter passes [n].  The per-module scheduling cost is amortized 8x,
   neighbouring modules stay on one domain (warm minor heap), and a
   slow worker simply claims fewer chunks.  Result slot [i] always
   receives [f inputs.(i)] regardless of who claimed it: output order
   and content are independent of the schedule, which is why
   determinism holds for any [jobs].

   Worker 0 is the calling domain; a batch with [jobs >= 2] spawns the
   other [workers - 1] domains for itself and joins them all before it
   returns, so no domain outlives its batch. *)

let map_pool ~jobs ~t0 f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  let workers = Stdlib.max 1 (Stdlib.min jobs n) in
  let claimed = Array.make workers 0 in
  let first_wait = Array.make workers Float.nan in
  let next = Atomic.make 0 in
  let chunk = Stdlib.max 1 (n / (8 * workers)) in
  let rec drain w =
    let lo = Atomic.fetch_and_add next chunk in
    if lo < n then begin
      let hi = Stdlib.min n (lo + chunk) in
      for i = lo to hi - 1 do
        results.(i) <- Some (f inputs.(i))
      done;
      claimed.(w) <- claimed.(w) + (hi - lo);
      drain w
    end
  in
  let worker w =
    let body () =
      (* per worker, not per module: the queue-wait gauge stays live
         even with telemetry off, like every other gauge *)
      let wait = Mae_obs.Clock.monotonic () -. t0 in
      first_wait.(w) <- wait;
      if Mae_obs.Control.enabled () then
        Mae_obs.Sketch.observe queue_wait_sketch wait;
      drain w
    in
    (if Mae_obs.Control.enabled () then
       (* one root span per worker: its lane in the Chrome trace.  The
          domain id lets the trace viewer correlate this lane with the
          gc.* pause slices the runtime lens emits per domain. *)
       Mae_obs.Span.with_ ~name:"engine.worker"
         ~attrs:
           [
             ("worker", string_of_int w);
             ("domain", string_of_int (Domain.self () :> int));
           ]
         body
     else body ())
  in
  let spawned =
    Array.init (workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
  in
  let outcome run = match run () with () -> None | exception e -> Some e in
  let caller = outcome (fun () -> worker 0) in
  (* join every domain before re-raising, so none outlives the batch *)
  let joined = Array.map (fun d -> outcome (fun () -> Domain.join d)) spawned in
  Option.iter raise (List.find_map Fun.id (caller :: Array.to_list joined));
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index below [n] was claimed *))
      results
  in
  let max_wait =
    Array.fold_left
      (fun acc w -> if Float.is_nan w then acc else Float.max acc w)
      0. first_wait
  in
  (results, claimed, max_wait)

(* One module: its report, or the error that replaced it. *)
let estimate_module ?methods ~registry (circuit : Mae_netlist.Circuit.t) =
  match Mae.Driver.run_circuit ?methods ~registry circuit with
  | Ok report -> Ok report
  | Error e -> Error (Driver_error e)
  | exception exn ->
      Error (Crashed { module_name = circuit.name; exn = Printexc.to_string exn })

(* The one batch path: one fan-out (one claiming pass) over the
   circuits. *)
let run_circuits_with_stats ?methods ?jobs ~registry circuits =
  let jobs = resolve_jobs jobs in
  check_oversubscription jobs;
  let inputs = Array.of_list circuits in
  let modules = Array.length inputs in
  Mae_obs.Span.with_ ~name:"engine.batch"
    ~attrs:
      [ ("modules", string_of_int modules); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let t0 = Mae_obs.Clock.monotonic () in
  let results, per_domain, queue_wait =
    map_pool ~jobs ~t0 (estimate_module ?methods ~registry) inputs
  in
  let elapsed_s = Mae_obs.Clock.monotonic () -. t0 in
  let ok =
    Array.fold_left (fun n r -> if Result.is_ok r then n + 1 else n) 0 results
  in
  Mae_obs.Metrics.add modules_counter modules;
  Mae_obs.Metrics.add ok_counter ok;
  Mae_obs.Metrics.add failed_counter (modules - ok);
  Mae_obs.Metrics.set queue_wait_gauge queue_wait;
  let stats =
    {
      modules;
      ok;
      failed = modules - ok;
      jobs;
      elapsed_s;
      per_domain;
    }
  in
  if Mae_obs.Log.enabled Mae_obs.Log.Debug then
    Mae_obs.Log.debug ~event:"engine.batch"
      [
        ("modules", Mae_obs.Log.Int modules);
        ("ok", Mae_obs.Log.Int ok);
        ("failed", Mae_obs.Log.Int (modules - ok));
        ("jobs", Mae_obs.Log.Int jobs);
        ("elapsed_s", Mae_obs.Log.Float elapsed_s);
      ];
  (Array.to_list results, stats)

let run_circuits ?methods ?jobs ~registry circuits =
  fst (run_circuits_with_stats ?methods ?jobs ~registry circuits)

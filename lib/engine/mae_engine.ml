(* Baseline methodologies register at Mae_baselines.Methods init; this
   reference forces the linker to keep (and initialize) that unit, so
   every engine consumer can select them by name. *)
let () = Mae_baselines.Methods.ensure_registered ()

type error =
  | Driver_error of Mae.Driver.error
  | Crashed of { module_name : string; exn : string }
  | Invalid_edit of { module_name : string; reason : string }

let pp_error ppf = function
  | Driver_error e -> Mae.Driver.pp_error ppf e
  | Crashed { module_name; exn } ->
      Format.fprintf ppf "module %s: estimator crashed: %s" module_name exn
  | Invalid_edit { module_name; reason } ->
      Format.fprintf ppf "module %s: invalid edit: %s" module_name reason

type stats = {
  modules : int;
  ok : int;
  failed : int;
  jobs : int;
  elapsed_s : float;
  cache_hits : int;
  cache_misses : int;
  store_hits : int;
  store_misses : int;
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
let module_latency_sketch =
  Mae_obs.Sketch.create "mae_engine_module_seconds_summary"
    ~help:"Per-module estimation latency quantiles (GK sketch)"

let queue_wait_sketch =
  Mae_obs.Sketch.create "mae_engine_queue_wait_seconds_summary"
    ~help:
      "Per-worker delay between batch start and first module claim \
       (GK sketch; one sample per worker per batch)"

let oversubscribed_gauge =
  Mae_obs.Metrics.gauge "mae_engine_jobs_oversubscribed"
    ~help:
      "Domains requested beyond Domain.recommended_domain_count in the most \
       recent batch (0 = batch fit the hardware)"

let pp_stats ppf s =
  let lookups = s.cache_hits + s.cache_misses in
  Format.fprintf ppf
    "%d module(s) (%d ok, %d failed) on %d domain(s) in %.3f s (%.0f \
     modules/s); kernel cache %d hits / %d misses (%.1f%% hit rate); \
     modules/domain [%s]"
    s.modules s.ok s.failed (Array.length s.per_domain) s.elapsed_s
    (if s.elapsed_s > 0. then Float.of_int s.modules /. s.elapsed_s else 0.)
    s.cache_hits s.cache_misses
    (if lookups > 0 then 100. *. Float.of_int s.cache_hits /. Float.of_int lookups
     else 0.)
    (String.concat " " (List.map string_of_int (Array.to_list s.per_domain)));
  if s.store_hits + s.store_misses > 0 then
    Format.fprintf ppf "; estimate store %d hits / %d misses" s.store_hits
      s.store_misses

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

(* --- the persistent domain pool --- *)

(* Spawning a domain costs hundreds of microseconds -- more than a
   whole cached module -- so per-batch spawns make small parallel
   batches (the serve daemon's request sizes) a guaranteed loss.  The
   pool keeps its domains parked on a condition variable between
   batches; submitting a job is one lock round-trip and a broadcast.

   Generation-counter barrier: [run] publishes the job under the lock
   and bumps [gen]; each pool domain wakes, runs the job with its fixed
   slot number, then decrements [active] and signals [done_cv].  [run]
   participates as slot 0 on the calling domain and returns only after
   [active] drops to zero, so job memory (result slots, atomics) is
   fully synchronized before the caller reads it and jobs never
   overlap. *)
module Pool = struct
  type t = {
    lock : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable job : (int -> unit) option;
    mutable gen : int;
    mutable active : int;
    mutable exn : exn option; (* first exception a pool domain caught *)
    mutable stop : bool;
    mutable domains : unit Domain.t array;
  }

  let worker_loop p slot =
    let my_gen = ref 0 in
    let rec loop () =
      Mutex.lock p.lock;
      while (not p.stop) && p.gen = !my_gen do
        Condition.wait p.work_cv p.lock
      done;
      if p.stop then Mutex.unlock p.lock
      else begin
        let job = Option.get p.job in
        my_gen := p.gen;
        Mutex.unlock p.lock;
        let failure = match job slot with () -> None | exception e -> Some e in
        Mutex.lock p.lock;
        (match failure with
        | Some e when p.exn = None -> p.exn <- Some e
        | _ -> ());
        p.active <- p.active - 1;
        if p.active = 0 then Condition.broadcast p.done_cv;
        Mutex.unlock p.lock;
        loop ()
      end
    in
    loop ()

  let create ~domains =
    if domains < 0 then invalid_arg "Mae_engine.Pool.create: domains < 0" (* invariant *);
    let p =
      {
        lock = Mutex.create ();
        work_cv = Condition.create ();
        done_cv = Condition.create ();
        job = None;
        gen = 0;
        active = 0;
        exn = None;
        stop = false;
        domains = [||];
      }
    in
    p.domains <-
      Array.init domains (fun k ->
          Domain.spawn (fun () -> worker_loop p (k + 1)));
    p

  let concurrency p = Array.length p.domains + 1

  let run p f =
    Mutex.lock p.lock;
    if p.stop then begin
      Mutex.unlock p.lock;
      invalid_arg "Mae_engine.Pool.run: pool is shut down" (* invariant *)
    end;
    if p.job <> None then begin
      Mutex.unlock p.lock;
      invalid_arg "Mae_engine.Pool.run: a job is already running" (* invariant *)
    end;
    p.job <- Some f;
    p.gen <- p.gen + 1;
    p.active <- Array.length p.domains;
    p.exn <- None;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.lock;
    let caller_failure = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock p.lock;
    while p.active > 0 do
      Condition.wait p.done_cv p.lock
    done;
    p.job <- None;
    let pool_failure = p.exn in
    p.exn <- None;
    Mutex.unlock p.lock;
    match (caller_failure, pool_failure) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()

  let shutdown p =
    Mutex.lock p.lock;
    if p.stop then Mutex.unlock p.lock
    else begin
      p.stop <- true;
      Condition.broadcast p.work_cv;
      Mutex.unlock p.lock;
      Array.iter Domain.join p.domains;
      p.domains <- [||]
    end
end

(* --- chunked claiming with steal-on-empty ---

   The input array is block-partitioned: worker [w] owns the range
   [[w*n/workers, (w+1)*n/workers)] and drains it in chunks of
   [max 1 (n / (8 * workers))] claimed with one [fetch_and_add] per
   chunk, so the per-module scheduling cost is amortized 8x and
   neighbouring modules stay on one domain (warm minor heap).  A worker
   whose range runs dry steals chunks from the other ranges with the
   same claim primitive, rescanning until a full sweep finds every
   range empty -- work only ever shrinks, so one clean sweep proves
   completion.  Result slot [i] always receives [f inputs.(i)]
   regardless of who claimed it: output order and content are
   independent of the schedule, which is why determinism survives
   stealing. *)

type range = { pos : int Atomic.t; hi : int }

let make_ranges ~workers n =
  Array.init workers (fun w ->
      { pos = Atomic.make (w * n / workers); hi = (w + 1) * n / workers })

(* claim up to [chunk] indices from [r]; None when the range is dry *)
let claim r chunk =
  let i = Atomic.fetch_and_add r.pos chunk in
  if i >= r.hi then None else Some (i, Stdlib.min r.hi (i + chunk))

let run_range results claimed f inputs w lo hi =
  for i = lo to hi - 1 do
    results.(i) <- Some (f inputs.(i))
  done;
  claimed.(w) <- claimed.(w) + (hi - lo)

(* Per worker: drain the own range, then sweep the others stealing
   chunks until a full sweep comes back empty. *)
let drain ~ranges ~chunk ~workers results claimed f inputs w =
  let rec own () =
    match claim ranges.(w) chunk with
    | Some (lo, hi) ->
        run_range results claimed f inputs w lo hi;
        own ()
    | None -> ()
  in
  own ();
  let rec sweep () =
    let stole = ref false in
    for v = 1 to workers - 1 do
      let victim = (w + v) mod workers in
      match claim ranges.(victim) chunk with
      | Some (lo, hi) ->
          stole := true;
          run_range results claimed f inputs w lo hi
      | None -> ()
    done;
    if !stole then sweep ()
  in
  sweep ()

let map_pool ~jobs ?pool ~t0 f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  let workers = Stdlib.max 1 (Stdlib.min jobs n) in
  let workers =
    match pool with
    | Some p -> Stdlib.min workers (Pool.concurrency p)
    | None -> workers
  in
  let claimed = Array.make workers 0 in
  let first_wait = Array.make workers Float.nan in
  let cache_delta = Array.make workers 0 in
  let miss_delta = Array.make workers 0 in
  let ranges = make_ranges ~workers n in
  let chunk = Stdlib.max 1 (n / (8 * workers)) in
  let worker w =
    let c0 = Mae_prob.Kernel_cache.local_counts () in
    let body () =
      (* per worker, not per module: the queue-wait gauge stays live
         even with telemetry off, like every other gauge *)
      let wait = Mae_obs.Clock.monotonic () -. t0 in
      first_wait.(w) <- wait;
      if Mae_obs.Control.enabled () then
        Mae_obs.Sketch.observe queue_wait_sketch wait;
      drain ~ranges ~chunk ~workers results claimed f inputs w
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
     else body ());
    let c1 = Mae_prob.Kernel_cache.local_counts () in
    cache_delta.(w) <- c1.Mae_prob.Kernel_cache.hits - c0.Mae_prob.Kernel_cache.hits;
    miss_delta.(w) <- c1.Mae_prob.Kernel_cache.misses - c0.Mae_prob.Kernel_cache.misses;
    (* keep the process-wide counters and published sketch summaries
       exact between batches, even on long-lived pool domains that may
       never observe again *)
    Mae_prob.Kernel_cache.flush_local ();
    Mae_obs.Sketch.flush_local ()
  in
  (* pool domains beyond the requested worker count run an empty slot:
     they wake, find no range, and report done *)
  let fan_out p = Pool.run p (fun slot -> if slot < workers then worker slot) in
  (match pool with
  | _ when workers = 1 -> worker 0
  | Some p -> fan_out p
  | None ->
      (* no caller pool: a short-lived one sized to this batch *)
      let p = Pool.create ~domains:(workers - 1) in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> fan_out p));
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
  let batch_hits = Array.fold_left ( + ) 0 cache_delta in
  let batch_misses = Array.fold_left ( + ) 0 miss_delta in
  (results, claimed, max_wait, batch_hits, batch_misses)

(* One module, through the estimate store when there is one: the
   result plus how the store answered -- [`Hit]/[`Miss] when it was
   consulted, [`Bypass] when the lookup never happened (no cache, a
   [config] override, or an unknown process/method that the driver will
   report).  Counting these flags gives every group of a batch exact
   store accounting, even while other batches share the store. *)
let estimate_module ?config ?methods ?cache ~registry
    (circuit : Mae_netlist.Circuit.t) =
  let run_uncached () =
    match Mae.Driver.run_circuit ?config ?methods ~registry circuit with
    | Ok report -> Ok report
    | Error e -> Error (Driver_error e)
    | exception exn ->
        Error
          (Crashed { module_name = circuit.name; exn = Printexc.to_string exn })
  in
  let run () =
    match (cache, config) with
    (* a [config] changes results but is not part of the content
       address (the store keys circuit + process + registry + methods),
       so configured runs bypass the store entirely *)
    | None, _ | Some _, Some _ -> (run_uncached (), `Bypass)
    | Some cas, None -> (
        match Mae_tech.Registry.find registry circuit.technology with
        | None ->
            (run_uncached (), `Bypass)
            (* the driver will report Unknown_process *)
        | Some process -> (
            match
              Mae.Methodology.resolve (Option.value methods ~default:[ "default" ])
            with
            | Error _ -> (run_uncached (), `Bypass) (* ... or Unknown_method *)
            | Ok selected -> (
                let names = List.map Mae.Methodology.name selected in
                let key = Mae_db.Cas.key ~methods:names ~process circuit in
                match Mae_db.Cas.find cas ~key ~circuit ~process with
                | Some report -> (Ok report, `Hit)
                | None -> (
                    let r = run_uncached () in
                    (match r with
                    | Ok report -> Mae_db.Cas.store cas ~key report
                    | Error _ -> ());
                    (r, `Miss)))))
  in
  Mae_obs.Sketch.time module_latency_sketch run

(* The one batch path.  Each inner list is one request's circuits; the
   concatenation runs as a single fan-out (one pool submission, one
   work-stealing pass) and is sliced back into the groups, each with
   its own store hit/miss counts from the per-module flags. *)
let run_grouped ?config ?methods ?jobs ?pool ?cache ~registry groups =
  let jobs = resolve_jobs jobs in
  check_oversubscription jobs;
  let inputs = Array.of_list (List.concat groups) in
  let modules = Array.length inputs in
  Mae_obs.Span.with_ ~name:"engine.batch"
    ~attrs:
      [
        ("modules", string_of_int modules);
        ("jobs", string_of_int jobs);
        ("groups", string_of_int (List.length groups));
      ]
  @@ fun () ->
  let t0 = Mae_obs.Clock.monotonic () in
  let flagged, per_domain, queue_wait, cache_hits, cache_misses =
    map_pool ~jobs ?pool ~t0
      (estimate_module ?config ?methods ?cache ~registry)
      inputs
  in
  let elapsed_s = Mae_obs.Clock.monotonic () -. t0 in
  let _, grouped =
    List.fold_left_map
      (fun off group ->
        let slice = Array.sub flagged off (List.length group) in
        let count flag =
          Array.fold_left (fun n (_, f) -> if f = flag then n + 1 else n) 0 slice
        in
        ( off + Array.length slice,
          (Array.to_list (Array.map fst slice), count `Hit, count `Miss) ))
      0 groups
  in
  let ok =
    Array.fold_left
      (fun acc (r, _) -> match r with Ok _ -> acc + 1 | Error _ -> acc)
      0 flagged
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
      (* summed per-worker deltas of the workers' domain-local cache
         counts: exactly this batch's traffic, even when another batch
         runs concurrently on other domains *)
      cache_hits;
      cache_misses;
      store_hits = List.fold_left (fun a (_, h, _) -> a + h) 0 grouped;
      store_misses = List.fold_left (fun a (_, _, m) -> a + m) 0 grouped;
      per_domain;
    }
  in
  if Mae_obs.Log.enabled Mae_obs.Log.Debug then
    Mae_obs.Log.debug ~event:"engine.batch"
      [
        ("modules", Mae_obs.Log.Int modules);
        ("groups", Mae_obs.Log.Int (List.length groups));
        ("ok", Mae_obs.Log.Int ok);
        ("failed", Mae_obs.Log.Int (modules - ok));
        ("jobs", Mae_obs.Log.Int jobs);
        ("elapsed_s", Mae_obs.Log.Float elapsed_s);
        ("cache_hits", Mae_obs.Log.Int cache_hits);
        ("cache_misses", Mae_obs.Log.Int cache_misses);
      ];
  (grouped, stats)

let run_circuits_with_stats ?config ?methods ?jobs ?pool ?cache ~registry
    circuits =
  let grouped, stats =
    run_grouped ?config ?methods ?jobs ?pool ?cache ~registry [ circuits ]
  in
  (List.concat_map (fun (results, _, _) -> results) grouped, stats)

let run_circuits ?config ?methods ?jobs ?pool ?cache ~registry circuits =
  fst
    (run_circuits_with_stats ?config ?methods ?jobs ?pool ?cache ~registry
       circuits)

(* --- incremental re-estimation: the delta path --- *)

module C = Mae_netlist.Circuit
module Dv = Mae_netlist.Device
module Nt = Mae_netlist.Net
module Pt = Mae_netlist.Port

type edit =
  | Add_device of { name : string; kind : string; nets : string list }
  | Remove_device of { name : string }
  | Add_net of { name : string }
  | Remove_net of { name : string }

type reestimate_report = {
  report : Mae.Driver.module_report;
  reused : string list;
  recomputed : string list;
  stats_incremental : bool;
  stats : Mae_netlist.Stats.t;
}

(* Rebuild a circuit through Builder preserving net and device index
   order exactly, so the float folds downstream see the same sequences.
   Additions are appended last (Builder creates nets on first mention),
   which is what makes the Add_* stats deltas exact. *)
let rebuild ?(keep_device = fun _ -> true) ?(keep_net = fun _ -> true)
    ?append_net ?append_device (c : C.t) =
  let b = Mae_netlist.Builder.create ~name:c.name ~technology:c.technology in
  let net_name i = (c.nets.(i) : Nt.t).name in
  Array.iter
    (fun (n : Nt.t) -> if keep_net n.name then ignore (Mae_netlist.Builder.net b n.name))
    c.nets;
  (match append_net with
  | Some name -> ignore (Mae_netlist.Builder.net b name)
  | None -> ());
  Array.iter
    (fun (d : Dv.t) ->
      if keep_device d.name then
        ignore
          (Mae_netlist.Builder.add_device b ~name:d.name ~kind:d.kind
             ~nets:(Array.to_list (Array.map net_name d.pins))))
    c.devices;
  (match append_device with
  | Some (name, kind, nets) ->
      ignore (Mae_netlist.Builder.add_device b ~name ~kind ~nets)
  | None -> ());
  Array.iter
    (fun (p : Pt.t) ->
      Mae_netlist.Builder.add_port b ~name:p.name ~direction:p.direction
        ~net:(net_name p.net))
    c.ports;
  Mae_netlist.Builder.build b

let apply_edit (c : C.t) edit =
  try
    match edit with
    | Add_device { name; kind; nets } ->
        if nets = [] then Error "a device needs at least one pin"
        else if C.find_device c name <> None then
          Error (Printf.sprintf "device %s already exists" name)
        else Ok (rebuild ~append_device:(name, kind, nets) c)
    | Remove_device { name } ->
        if C.find_device c name = None then
          Error (Printf.sprintf "no device named %s" name)
        else Ok (rebuild ~keep_device:(fun n -> not (String.equal n name)) c)
    | Add_net { name } ->
        if name = "" then Error "empty net name"
        else if C.find_net c name <> None then
          Error (Printf.sprintf "net %s already exists" name)
        else Ok (rebuild ~append_net:name c)
    | Remove_net { name } -> (
        match C.find_net c name with
        | None -> Error (Printf.sprintf "no net named %s" name)
        | Some n ->
            if C.degree c n.index > 0 then
              Error
                (Printf.sprintf "net %s still connects %d device(s)" name
                   (C.degree c n.index))
            else if
              Array.exists (fun (p : Pt.t) -> p.net = n.index) c.ports
            then Error (Printf.sprintf "net %s is bound to a port" name)
            else Ok (rebuild ~keep_net:(fun nm -> not (String.equal nm name)) c))
  with Invalid_argument reason -> Error reason

(* Per-methodology input projections.

   A stored outcome is reused only when every input the estimator reads
   is bit-for-bit unchanged between the old and new circuit; all float
   comparisons go through IEEE bit patterns.  The projections mirror
   exactly what each estimator consumes:

   - stdcell (stdcell.ml, row_select.ml): device_count, port_count,
     average_width, total_device_area, the degree histogram.
   - fullcustom (fullcustom.ml): the device term (total_device_area in
     exact mode; device_count, average widths/heights in average mode),
     port_count, and the ordered per-net channel contributions: nets of
     degree <= 1 add a literal +0. to a non-negative accumulator (a
     bitwise no-op), so only nets of degree >= 2 matter -- compared in
     net-index order with their member widths (exact mode).
   - gatearray (gatearray.ml): the device-kind multiset (site demand)
     plus the full stats record (track model).

   Unknown methodologies (baselines) have no projection and are always
   recomputed. *)

let bits = Int64.bits_of_float
let feq a b = Int64.equal (bits a) (bits b)

let stdcell_projection_equal (a : Mae_netlist.Stats.t)
    (b : Mae_netlist.Stats.t) =
  a.device_count = b.device_count
  && a.port_count = b.port_count
  && feq a.average_width b.average_width
  && feq a.total_device_area b.total_device_area
  && a.degree_histogram = b.degree_histogram

let fc_wire_profile ~exact (c : C.t) process =
  let widths =
    if exact then Some (Mae_netlist.Stats.device_widths c process) else None
  in
  List.init (C.net_count c) (fun n ->
      let members = C.devices_on_net c n in
      let d = Array.length members in
      if d < 2 then None
      else
        Some
          ( d,
            match widths with
            | Some w -> Array.to_list (Array.map (fun i -> bits w.(i)) members)
            | None -> [] ))
  |> List.filter_map Fun.id

let fullcustom_projection_equal ~exact ~(old_fc : C.t)
    ~(old_fc_stats : Mae_netlist.Stats.t) ~(new_fc : C.t)
    ~(new_fc_stats : Mae_netlist.Stats.t) process =
  old_fc_stats.device_count = new_fc_stats.device_count
  && old_fc_stats.port_count = new_fc_stats.port_count
  && (if exact then feq old_fc_stats.total_device_area new_fc_stats.total_device_area
      else
        feq old_fc_stats.average_width new_fc_stats.average_width
        && feq old_fc_stats.average_height new_fc_stats.average_height)
  && fc_wire_profile ~exact old_fc process = fc_wire_profile ~exact new_fc process

let kind_multiset (c : C.t) =
  Array.to_list c.devices
  |> List.map (fun (d : Dv.t) -> d.kind)
  |> List.sort String.compare

let reestimate ?config ?methods ?cache ?previous_stats ~registry
    ~(previous : Mae.Driver.module_report) edit =
  let module_name = previous.circuit.C.name in
  match apply_edit previous.circuit edit with
  | Error reason -> Error (Invalid_edit { module_name; reason })
  | Ok circuit -> (
      try
        match Mae_tech.Registry.find registry circuit.C.technology with
        | None ->
            Error
              (Driver_error
                 (Mae.Driver.Unknown_process
                    { module_name; technology = circuit.C.technology }))
        | Some process -> (
            match
              Mae.Methodology.resolve (Option.value methods ~default:[ "default" ])
            with
            | Error name ->
                Error
                  (Driver_error
                     (Mae.Driver.Unknown_method { module_name; methodology = name }))
            | Ok selected -> (
                let issues = Mae_netlist.Validate.check circuit process in
                let errors = List.filter Mae_netlist.Validate.is_error issues in
                match errors with
                | _ :: _ ->
                    Error
                      (Driver_error
                         (Mae.Driver.Validation_failed
                            { module_name; issues = errors }))
                | [] ->
                    let old_stats =
                      match previous_stats with
                      | Some s -> s
                      | None ->
                          Mae_netlist.Stats.compute previous.circuit process
                    in
                    (* the edit kinds whose stats update extends the
                       original fold (appends) are exact; a removal
                       breaks float-fold associativity, so it recomputes *)
                    let stats, stats_incremental =
                      match edit with
                      | Add_device { kind; nets; _ } -> (
                          match Mae_tech.Process.find_device process kind with
                          | None ->
                              (Mae_netlist.Stats.compute circuit process, false)
                          | Some k ->
                              let transitions =
                                List.sort_uniq String.compare nets
                                |> List.map (fun nm ->
                                       match C.find_net previous.circuit nm with
                                       | Some n ->
                                           let d =
                                             C.degree previous.circuit n.Nt.index
                                           in
                                           (d, d + 1)
                                       | None -> (0, 1))
                              in
                              ( Mae_netlist.Stats.add_device_delta old_stats
                                  ~kind:k ~net_count:(C.net_count circuit)
                                  ~net_transitions:transitions,
                                true ))
                      | Add_net _ | Remove_net _ ->
                          ( Mae_netlist.Stats.with_net_count old_stats
                              ~net_count:(C.net_count circuit),
                            true )
                      | Remove_device _ ->
                          (Mae_netlist.Stats.compute circuit process, false)
                    in
                    let expanded =
                      Mae.Methodology.expand_for_fullcustom circuit process
                    in
                    let fc_circuit = Option.value expanded ~default:circuit in
                    let fc_stats =
                      match expanded with
                      | None -> stats
                      | Some e -> Mae_netlist.Stats.compute e process
                    in
                    let ctx =
                      {
                        Mae.Methodology.config;
                        process;
                        stats;
                        fc_circuit;
                        fc_stats;
                        rows_override = None;
                      }
                    in
                    (* old full-custom inputs are re-derived from the old
                       circuit (expansion is deterministic), so reuse is
                       sound even when [previous] came from the store with
                       its expansion intermediate stripped *)
                    let old_fc_inputs =
                      lazy
                        (let old_expanded =
                           Mae.Methodology.expand_for_fullcustom
                             previous.circuit process
                         in
                         let old_fc =
                           Option.value old_expanded ~default:previous.circuit
                         in
                         let old_fc_stats =
                           match old_expanded with
                           | None -> old_stats
                           | Some e -> Mae_netlist.Stats.compute e process
                         in
                         (old_fc, old_fc_stats))
                    in
                    let projection_unchanged name =
                      match name with
                      | "stdcell" -> stdcell_projection_equal old_stats stats
                      | "fullcustom-exact" | "fullcustom-average" ->
                          let old_fc, old_fc_stats = Lazy.force old_fc_inputs in
                          fullcustom_projection_equal
                            ~exact:(String.equal name "fullcustom-exact")
                            ~old_fc ~old_fc_stats ~new_fc:fc_circuit
                            ~new_fc_stats:fc_stats process
                      | "gatearray" ->
                          Mae_netlist.Stats.equal old_stats stats
                          && kind_multiset previous.circuit = kind_multiset circuit
                      | _ -> false
                    in
                    let reused = ref [] in
                    let recomputed = ref [] in
                    let results =
                      List.map
                        (fun t ->
                          let name = Mae.Methodology.name t in
                          let previous_outcome =
                            (* reuse only successful outcomes whose every
                               input is bitwise unchanged; a [config]
                               could change what an estimator reads, so
                               configured runs always recompute *)
                            if config = None && projection_unchanged name then
                              match Mae.Driver.find_result previous name with
                              | Some (Ok o) -> Some (Ok o)
                              | Some (Error _) | None -> None
                            else None
                          in
                          match previous_outcome with
                          | Some outcome ->
                              reused := name :: !reused;
                              { Mae.Driver.methodology = t; outcome }
                          | None ->
                              recomputed := name :: !recomputed;
                              {
                                Mae.Driver.methodology = t;
                                outcome = Mae.Methodology.run ctx t circuit;
                              })
                        selected
                    in
                    let report =
                      { Mae.Driver.circuit; process; issues; expanded; results }
                    in
                    (match (cache, config) with
                    | Some cas, None ->
                        let names = List.map Mae.Methodology.name selected in
                        let key = Mae_db.Cas.key ~methods:names ~process circuit in
                        Mae_db.Cas.store cas ~key report
                    | _ -> ());
                    Ok
                      {
                        report;
                        reused = List.rev !reused;
                        recomputed = List.rev !recomputed;
                        stats_incremental;
                        stats;
                      }))
      with exn ->
        Error (Crashed { module_name; exn = Printexc.to_string exn }))

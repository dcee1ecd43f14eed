(* Domain-safe memo tables for the estimator's probability kernels.

   Every quantity here depends only on small integer keys -- (rows,
   degree) for the row-span expectation of equation (3), (net count,
   rows) for the feed-through expectation of equation (11) -- so a
   batch of modules re-derives the same handful of kernels thousands
   of times.  The tables below compute each once and share it across
   every circuit and every domain of the batch engine.  They keep the
   rounded-up integer only: the distribution it came from is built
   afresh on a miss and dropped, so a long-lived process retains one
   word per key, not one float per outcome.

   Concurrency.  A table is one [Hashtbl] behind one mutex.  A hit is a
   [find_opt] under the lock.  A miss computes OUTSIDE the lock (the
   kernels are pure), then inserts under the lock unless the key is
   already there.  In that case another domain computed the same kernel
   first: this domain's value is dropped and the drop counted as a race,
   so races never exceed misses and every caller gets a correct value.

   Accounting.  Every lookup adds straight into the process-wide
   [Mae_obs.Metrics] counters, so {!stats} and /metrics are exact at
   any moment.  It also bumps a plain per-domain tally, which the batch
   engine reads through {!local_counts} around each worker's run to
   attribute hits and misses to the batch that caused them. *)

type span_model = Paper | Exact

let enabled_flag = Atomic.make true

let hit_count =
  Mae_obs.Metrics.counter "mae_kernel_cache_hits_total"
    ~help:"Probability-kernel lookups served from the memo tables"

let miss_count =
  Mae_obs.Metrics.counter "mae_kernel_cache_misses_total"
    ~help:"Probability-kernel lookups that computed the kernel"

let race_count =
  Mae_obs.Metrics.counter "mae_kernel_cache_races_total"
    ~help:
      "Misses whose insert was dropped because another domain computed the \
       same kernel first"

type counts = { hits : int; misses : int; races : int }

type tally = {
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_races : int;
}

let tally_key =
  Domain.DLS.new_key (fun () -> { t_hits = 0; t_misses = 0; t_races = 0 })

let local_counts () =
  let l = Domain.DLS.get tally_key in
  { hits = l.t_hits; misses = l.t_misses; races = l.t_races }

module Table = struct
  type ('k, 'v) t = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

  (* every table registers itself so [clear]/[stats] span the gate-array
     shape table as well as the two kernel tables below *)
  type handle = { h_clear : unit -> unit; h_entries : unit -> int }

  let registry_lock = Mutex.create ()
  let registry : handle list ref = ref []

  let handles () = Mutex.protect registry_lock (fun () -> !registry)

  let create () =
    let t = { lock = Mutex.create (); tbl = Hashtbl.create 64 } in
    let h =
      {
        h_clear =
          (fun () -> Mutex.protect t.lock (fun () -> Hashtbl.reset t.tbl));
        h_entries =
          (fun () -> Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl));
      }
    in
    Mutex.protect registry_lock (fun () -> registry := h :: !registry);
    t

  let find_or_compute t key compute =
    if not (Atomic.get enabled_flag) then compute ()
    else begin
      let l = Domain.DLS.get tally_key in
      match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) with
      | Some v ->
          l.t_hits <- l.t_hits + 1;
          Mae_obs.Metrics.incr hit_count;
          v
      | None ->
          let v = compute () in
          let raced =
            Mutex.protect t.lock (fun () ->
                let present = Hashtbl.mem t.tbl key in
                if not present then Hashtbl.add t.tbl key v;
                present)
          in
          l.t_misses <- l.t_misses + 1;
          Mae_obs.Metrics.incr miss_count;
          if raced then begin
            l.t_races <- l.t_races + 1;
            Mae_obs.Metrics.incr race_count
          end;
          v
    end
end

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let span_ceil_table : (span_model * int * int, int) Table.t = Table.create ()
let feed_ceil_table : (int * int, int) Table.t = Table.create ()

(* --- row-span distribution (equations 2-3) --- *)

let check_span ~rows ~degree =
  if rows < 1 then invalid_arg "Kernel_cache: rows < 1";
  if degree < 1 then invalid_arg "Kernel_cache: degree < 1"

let row_span_dist_uncached ~model ~rows ~degree =
  check_span ~rows ~degree;
  let support = Stdlib.min rows degree in
  let outcomes = Array.init support (fun j -> j + 1) in
  let weights =
    match model with
    | Paper ->
        (* weight(i) = C(n,i) * b_k(i); the common (1/n)^k factor cancels
           in the normalization performed by Dist.of_sorted_weights. *)
        let k = Stdlib.min rows degree in
        let b = Comb.paper_b_row ~k support in
        Array.init support (fun j -> Comb.choose rows (j + 1) *. b.(j + 1))
    | Exact ->
        let s = Comb.surjections_row degree support in
        Array.init support (fun j -> Comb.choose rows (j + 1) *. s.(j + 1))
  in
  Dist.of_sorted_weights ~outcomes ~weights

let expected_span ~model ~rows ~degree =
  check_span ~rows ~degree;
  Table.find_or_compute span_ceil_table (model, rows, degree) (fun () ->
      Dist.expectation_ceil (row_span_dist_uncached ~model ~rows ~degree))

(* --- feed-throughs (equations 9-11) --- *)

let two_component_feed_prob ~rows =
  if rows < 1 then invalid_arg "Kernel_cache: rows < 1";
  let n = Float.of_int rows in
  let r = (n -. 1.) /. n in
  r *. r /. 2.

let feed_through_dist_uncached ~net_count ~rows =
  if net_count < 0 then invalid_arg "Kernel_cache: net_count < 0";
  Dist.binomial ~n:net_count ~p:(two_component_feed_prob ~rows)

let expected_feed_throughs ~net_count ~rows =
  if net_count < 0 then invalid_arg "Kernel_cache: net_count < 0";
  if rows < 1 then invalid_arg "Kernel_cache: rows < 1";
  Table.find_or_compute feed_ceil_table (net_count, rows) (fun () ->
      Dist.expectation_ceil (feed_through_dist_uncached ~net_count ~rows))

(* --- introspection --- *)

type stats = { hits : int; misses : int; races : int; entries : int }

let stats () =
  {
    hits = Mae_obs.Metrics.counter_value hit_count;
    misses = Mae_obs.Metrics.counter_value miss_count;
    races = Mae_obs.Metrics.counter_value race_count;
    entries =
      List.fold_left
        (fun acc h -> acc + h.Table.h_entries ())
        0 (Table.handles ());
  }

let clear () =
  List.iter (fun h -> h.Table.h_clear ()) (Table.handles ());
  Mae_obs.Metrics.reset_counter hit_count;
  Mae_obs.Metrics.reset_counter miss_count;
  Mae_obs.Metrics.reset_counter race_count

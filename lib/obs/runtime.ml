(* The runtime lens: a self-monitoring Runtime_events consumer.

   OCaml 5 publishes GC phase spans and counters into per-domain ring
   buffers; this module owns the in-process cursor over them.  While
   the lens is on, a dedicated sampler *domain* drains the rings every
   [poll_interval_s], folding

   - top-level pause windows (any nest of runtime phases from depth 0
     back to depth 0 -- the olly measurement convention) into one GK
     sketch per ring, labelled {domain="<ring>"}, exported as the
     mae_gc_pause_seconds_summary family;
   - collection / allocation / promotion counters into mae_gc_*
     counters and the major-heap gauge;
   - recent pause windows into a bounded store that (a) answers
     "how much GC landed inside this request window" for Capture
     tagging and (b) holds the gc.* spans Trace reads into its
     Chrome-trace export.

   The sampler is a domain rather than a sys-thread, so it needs no
   threads library and polls without sharing domain 0's runtime lock
   with the server loop.  All consumer state is guarded by one mutex;
   [read_poll] and the callback mutations run inside it.

   Off means off: every query gate is a single Atomic.get, nothing is
   registered, no cursor exists, no file is created.  [start] is the
   only entry point with side effects, and it is explicit -- the serve
   plane and the CLI call it exactly when telemetry is enabled.

   Ring ids, not domain ids: the first argument of every callback is
   the ring buffer index.  A ring belongs to one domain for that
   domain's lifetime and may be reused by a later spawn.  The numbering
   coincides with Domain.id only while no domain has exited: the
   engine spawns and joins its workers per batch, so after a parallel
   batch a new domain's id no longer matches the ring it reuses. *)

module RE = Runtime_events

let recent_cap = 8192
let pause_eps = 0.005

type ring = {
  ring_id : int;
  sketch : Sketch.t;
  mutable depth : int;  (* runtime-phase nesting, this ring *)
  mutable pause_start : float;  (* monotonic s, valid when depth > 0 *)
  mutable pause_name : string;  (* "gc.<top-level phase>" *)
  mutable pauses : int;
  mutable pause_total_s : float;
  mutable max_pause_s : float;
  mutable minors : int;
  mutable major_slices : int;
  mutable major_cycles : int;
  mutable allocated_words : int;
  mutable promoted_words : int;
  mutable heap_pool_words : int;
  mutable heap_large_words : int;
}

type instruments = {
  minors_c : Metrics.counter;
  major_slices_c : Metrics.counter;
  major_cycles_c : Metrics.counter;
  pauses_c : Metrics.counter;
  allocated_c : Metrics.counter;
  promoted_c : Metrics.counter;
  lost_c : Metrics.counter;
  heap_g : Metrics.gauge;
  domains_g : Metrics.gauge;
}

(* The single-atomic-check gate every query goes through. *)
let running_flag = Atomic.make false
let stop_requested = Atomic.make false

(* Guards everything below (consumer state); lock order is
   lock -> Sketch locks, never the reverse. *)
let lock = Mutex.create ()

(* Serializes start/stop transitions against each other. *)
let life_lock = Mutex.create ()

let rings : (int, ring) Hashtbl.t = Hashtbl.create 8
let recent : Span.event option array = Array.make recent_cap None
let recent_pos = ref 0
let events_read = ref 0
let polls = ref 0
let events_lost = ref 0
let instruments : instruments option ref = ref None
let cursor : RE.cursor option ref = ref None
let callbacks : RE.Callbacks.t option ref = ref None
let sampler : unit Domain.t option ref = ref None

let ts_s ts = Int64.to_float (RE.Timestamp.to_int64 ts) *. 1e-9

(* Registered on first start, idempotently re-fetched after. *)
let get_instruments () =
  match !instruments with
  | Some i -> i
  | None ->
      let i =
        {
          minors_c =
            Metrics.counter ~help:"Minor collections observed"
              "mae_gc_minor_collections_total";
          major_slices_c =
            Metrics.counter ~help:"Major GC slices observed"
              "mae_gc_major_slices_total";
          major_cycles_c =
            Metrics.counter ~help:"Completed major GC cycles"
              "mae_gc_major_cycles_total";
          pauses_c =
            Metrics.counter ~help:"Top-level runtime pause windows"
              "mae_gc_pauses_total";
          allocated_c =
            Metrics.counter ~help:"Minor-heap words allocated"
              "mae_gc_words_allocated_total";
          promoted_c =
            Metrics.counter ~help:"Words promoted to the major heap"
              "mae_gc_words_promoted_total";
          lost_c =
            Metrics.counter ~help:"Runtime events dropped by the consumer"
              "mae_gc_events_lost_total";
          heap_g =
            Metrics.gauge ~help:"Major heap words (pools + large), all domains"
              "mae_gc_heap_words";
          domains_g =
            Metrics.gauge ~help:"Domains observed emitting runtime events"
              "mae_process_domains";
        }
      in
      instruments := Some i;
      i

let ring_state ring_id =
  match Hashtbl.find_opt rings ring_id with
  | Some r -> r
  | None ->
      let r =
        {
          ring_id;
          sketch =
            Metrics.summary ~help:"GC pause duration per domain"
              ~eps:pause_eps
              ~labels:[ ("domain", string_of_int ring_id) ]
              "mae_gc_pause_seconds_summary";
          depth = 0;
          pause_start = 0.;
          pause_name = "gc.pause";
          pauses = 0;
          pause_total_s = 0.;
          max_pause_s = 0.;
          minors = 0;
          major_slices = 0;
          major_cycles = 0;
          allocated_words = 0;
          promoted_words = 0;
          heap_pool_words = 0;
          heap_large_words = 0;
        }
      in
      Hashtbl.add rings ring_id r;
      r

let push_recent (e : Span.event) =
  recent.(!recent_pos mod recent_cap) <- Some e;
  incr recent_pos

(* --- cursor callbacks (always run under [lock], inside read_poll) --- *)

let on_begin ins ring_id ts phase =
  let r = ring_state ring_id in
  (match phase with
  | RE.EV_MINOR ->
      r.minors <- r.minors + 1;
      Metrics.incr ins.minors_c
  | RE.EV_MAJOR_SLICE ->
      r.major_slices <- r.major_slices + 1;
      Metrics.incr ins.major_slices_c
  | RE.EV_MAJOR_FINISH_CYCLE ->
      r.major_cycles <- r.major_cycles + 1;
      Metrics.incr ins.major_cycles_c
  | _ -> ());
  if r.depth = 0 then begin
    r.pause_start <- ts_s ts;
    r.pause_name <- "gc." ^ RE.runtime_phase_name phase
  end;
  r.depth <- r.depth + 1

let on_end ins ring_id ts _phase =
  let r = ring_state ring_id in
  (* an end without a begin means the phase opened before our cursor
     existed; drop it rather than underflow *)
  if r.depth > 0 then begin
    r.depth <- r.depth - 1;
    if r.depth = 0 then begin
      let dur = Float.max 0. (ts_s ts -. r.pause_start) in
      r.pauses <- r.pauses + 1;
      r.pause_total_s <- r.pause_total_s +. dur;
      if dur > r.max_pause_s then r.max_pause_s <- dur;
      Sketch.observe r.sketch dur;
      Metrics.incr ins.pauses_c;
      push_recent
        {
          Span.name = r.pause_name;
          attrs = [];
          domain = ring_id;
          depth = 0;
          ts = r.pause_start;
          dur;
          self = dur;
        }
    end
  end

let on_counter ins ring_id _ts counter value =
  let r = ring_state ring_id in
  match counter with
  | RE.EV_C_MINOR_ALLOCATED ->
      r.allocated_words <- r.allocated_words + value;
      Metrics.add ins.allocated_c value
  | RE.EV_C_MINOR_PROMOTED ->
      r.promoted_words <- r.promoted_words + value;
      Metrics.add ins.promoted_c value
  | RE.EV_C_MAJOR_HEAP_POOL_WORDS -> r.heap_pool_words <- value
  | RE.EV_C_MAJOR_HEAP_LARGE_WORDS -> r.heap_large_words <- value
  | _ -> ()

let on_lost ins _ring_id n =
  events_lost := !events_lost + n;
  Metrics.add ins.lost_c n

(* --- polling --- *)

let poll () =
  if not (Atomic.get running_flag) then 0
  else begin
    Mutex.lock lock;
    let n =
      match (!cursor, !callbacks) with
      | Some c, Some cb -> ( try RE.read_poll c cb None with _ -> 0)
      | _ -> 0
    in
    events_read := !events_read + n;
    incr polls;
    (match !instruments with
    | Some ins ->
        let heap = ref 0 in
        Hashtbl.iter
          (fun _ r -> heap := !heap + r.heap_pool_words + r.heap_large_words)
          rings;
        Metrics.set ins.heap_g (float_of_int !heap);
        Metrics.set ins.domains_g (float_of_int (Hashtbl.length rings))
    | None -> ());
    Mutex.unlock lock;
    n
  end

let poll_interval_s = 0.05

let sampler_loop () =
  while not (Atomic.get stop_requested) do
    ignore (poll ());
    Procstat.sample ();
    (try Unix.sleepf poll_interval_s
     with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done

(* --- lifecycle --- *)

let running () = Atomic.get running_flag

let start () =
  Mutex.lock life_lock;
  let started =
    if Atomic.get running_flag then false
    else begin
      RE.start ();
      RE.resume ();
      (* resume: a previous [stop] paused collection *)
      Mutex.lock lock;
      let ins = get_instruments () in
      callbacks :=
        Some
          (RE.Callbacks.create ~runtime_begin:(on_begin ins)
             ~runtime_end:(on_end ins) ~runtime_counter:(on_counter ins)
             ~lost_events:(on_lost ins) ());
      cursor := Some (RE.create_cursor None);
      Mutex.unlock lock;
      Atomic.set stop_requested false;
      Atomic.set running_flag true;
      sampler := Some (Domain.spawn sampler_loop);
      true
    end
  in
  Mutex.unlock life_lock;
  started

let stop () =
  Mutex.lock life_lock;
  if Atomic.get running_flag then begin
    Atomic.set stop_requested true;
    (match !sampler with Some d -> Domain.join d | None -> ());
    sampler := None;
    (* final drain, then tear the cursor down *)
    ignore (poll ());
    Atomic.set running_flag false;
    Mutex.lock lock;
    (match !cursor with
    | Some c -> ( try RE.free_cursor c with _ -> ())
    | None -> ());
    cursor := None;
    callbacks := None;
    Mutex.unlock lock;
    (* stop producing events until the next start *)
    RE.pause ()
  end;
  Mutex.unlock life_lock

(* --- queries (all usable after stop; gates are only on the paths
   that would touch the cursor) --- *)

type domain_stats = {
  d_ring : int;
  d_pauses : int;
  d_pause_total_s : float;
  d_max_pause_s : float;
  d_p50_pause_s : float option;
  d_p99_pause_s : float option;
  d_minors : int;
  d_major_slices : int;
  d_major_cycles : int;
  d_allocated_words : int;
  d_promoted_words : int;
  d_heap_words : int;
}

let gc_sketches () =
  Mutex.lock lock;
  let sks = Hashtbl.fold (fun _ r acc -> r.sketch :: acc) rings [] in
  Mutex.unlock lock;
  sks

let domains () =
  Mutex.lock lock;
  let copies =
    Hashtbl.fold
      (fun _ r acc ->
        ( r.ring_id,
          r.pauses,
          r.pause_total_s,
          r.max_pause_s,
          r.minors,
          r.major_slices,
          r.major_cycles,
          r.allocated_words,
          r.promoted_words,
          r.heap_pool_words + r.heap_large_words,
          r.sketch )
        :: acc)
      rings []
  in
  Mutex.unlock lock;
  (* quantile reads flush/merge sketch state; do them off the lock *)
  copies
  |> List.map
       (fun
         (ring, pauses, total, mx, minors, slices, cycles, alloc, promo, heap,
          sk)
       ->
         {
           d_ring = ring;
           d_pauses = pauses;
           d_pause_total_s = total;
           d_max_pause_s = mx;
           d_p50_pause_s = Sketch.quantile sk 0.5;
           d_p99_pause_s = Sketch.quantile sk 0.99;
           d_minors = minors;
           d_major_slices = slices;
           d_major_cycles = cycles;
           d_allocated_words = alloc;
           d_promoted_words = promo;
           d_heap_words = heap;
         })
  |> List.sort (fun a b -> Int.compare a.d_ring b.d_ring)

let pause_count () =
  Mutex.lock lock;
  let n = Hashtbl.fold (fun _ r acc -> acc + r.pauses) rings 0 in
  Mutex.unlock lock;
  n

let max_pause_seconds () =
  Mutex.lock lock;
  let mx =
    Hashtbl.fold (fun _ r acc -> Float.max acc r.max_pause_s) rings 0.
  in
  let any = Hashtbl.fold (fun _ r acc -> acc || r.pauses > 0) rings false in
  Mutex.unlock lock;
  if any then Some mx else None

let pause_quantile q = Sketch.quantile_of_many (gc_sketches ()) q

let pause_seconds_since since =
  if not (Atomic.get running_flag) then 0.
  else begin
    ignore (poll ());
    Mutex.lock lock;
    let acc = ref 0. in
    Array.iter
      (function
        | Some (e : Span.event) when e.ts +. e.dur >= since ->
            acc := !acc +. e.dur
        | _ -> ())
      recent;
    Mutex.unlock lock;
    !acc
  end

let gc_events () =
  Mutex.lock lock;
  let acc = ref [] in
  Array.iter
    (function Some e -> acc := e :: !acc | None -> ())
    recent;
  Mutex.unlock lock;
  List.sort
    (fun (a : Span.event) (b : Span.event) -> Float.compare a.ts b.ts)
    !acc

let to_json () =
  if Atomic.get running_flag then ignore (poll ());
  Mutex.lock lock;
  let read = !events_read and lost = !events_lost and np = !polls in
  Mutex.unlock lock;
  let ds = domains () in
  let opt_num = function None -> Json.Null | Some v -> Json.Number v in
  let int_n i = Json.Number (float_of_int i) in
  let domain_json d =
    Json.Object
      [
        ("domain", int_n d.d_ring);
        ("pauses", int_n d.d_pauses);
        ("pause_s", Json.Number d.d_pause_total_s);
        ("max_pause_s", Json.Number d.d_max_pause_s);
        ("p50_pause_s", opt_num d.d_p50_pause_s);
        ("p99_pause_s", opt_num d.d_p99_pause_s);
        ("minor_collections", int_n d.d_minors);
        ("major_slices", int_n d.d_major_slices);
        ("major_cycles", int_n d.d_major_cycles);
        ("allocated_words", int_n d.d_allocated_words);
        ("promoted_words", int_n d.d_promoted_words);
        ("heap_words", int_n d.d_heap_words);
      ]
  in
  let total f = List.fold_left (fun acc d -> acc + f d) 0 ds in
  Json.Object
    [
      ("enabled", Json.Bool (Atomic.get running_flag));
      ( "sampler",
        Json.Object
          [
            ("polls", int_n np);
            ("events", int_n read);
            ("events_lost", int_n lost);
          ] );
      ( "pause",
        Json.Object
          [
            ("count", int_n (total (fun d -> d.d_pauses)));
            ( "total_s",
              Json.Number
                (List.fold_left (fun acc d -> acc +. d.d_pause_total_s) 0. ds)
            );
            ( "max_s",
              Json.Number
                (List.fold_left (fun acc d -> Float.max acc d.d_max_pause_s)
                   0. ds) );
            ("p50_s", opt_num (pause_quantile 0.5));
            ("p90_s", opt_num (pause_quantile 0.9));
            ("p99_s", opt_num (pause_quantile 0.99));
          ] );
      ("minor_collections", int_n (total (fun d -> d.d_minors)));
      ("major_slices", int_n (total (fun d -> d.d_major_slices)));
      ("major_cycles", int_n (total (fun d -> d.d_major_cycles)));
      ("allocated_words", int_n (total (fun d -> d.d_allocated_words)));
      ("promoted_words", int_n (total (fun d -> d.d_promoted_words)));
      ("heap_words", int_n (total (fun d -> d.d_heap_words)));
      ("domains", Json.Array (List.map domain_json ds));
      ("process", Procstat.to_json ());
    ]

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ r ->
      r.depth <- 0;
      r.pauses <- 0;
      r.pause_total_s <- 0.;
      r.max_pause_s <- 0.;
      r.minors <- 0;
      r.major_slices <- 0;
      r.major_cycles <- 0;
      r.allocated_words <- 0;
      r.promoted_words <- 0)
    rings;
  Array.fill recent 0 recent_cap None;
  recent_pos := 0;
  events_read := 0;
  events_lost := 0;
  polls := 0;
  Mutex.unlock lock;
  List.iter Sketch.reset (gc_sketches ())

(* The persistent perf trajectory: every engine-bench and load-gate run
   appends one timestamped JSON line to BENCH_history.jsonl, so a
   regression shows up as a kink in the file's trajectory across
   commits rather than being lost when BENCH_engine.json is
   overwritten.  Append-only by design -- never truncate it here. *)

module Json = Mae_obs.Json

let path = "BENCH_history.jsonl"

(* Every entry carries a "gc" object so the history can answer "did
   that perf kink coincide with a GC behaviour change".  The Gc.quick_stat
   fields are process-cumulative and always available; the pause fields
   come from the runtime lens and appear only when a bench ran it. *)
let gc_fields () =
  let s = Gc.quick_stat () in
  let allocated = s.minor_words +. s.major_words -. s.promoted_words in
  let base =
    [
      ("minor_collections", Json.Number (float_of_int s.minor_collections));
      ("major_collections", Json.Number (float_of_int s.major_collections));
      ("allocated_words", Json.Number allocated);
      ("heap_words", Json.Number (float_of_int s.heap_words));
      ("top_heap_words", Json.Number (float_of_int s.top_heap_words));
    ]
  in
  let opt_num = function None -> Json.Null | Some v -> Json.Number v in
  let lens =
    if Mae_obs.Runtime.pause_count () > 0 then
      [
        ( "pauses",
          Json.Number (float_of_int (Mae_obs.Runtime.pause_count ())) );
        ("max_pause_s", opt_num (Mae_obs.Runtime.max_pause_seconds ()));
        ("p99_pause_s", opt_num (Mae_obs.Runtime.pause_quantile 0.99));
      ]
    else []
  in
  ("gc", Json.Object (base @ lens))

(* Run [f] with the runtime lens drained and zeroed first, so the p99
   pause returned beside its result covers [f] alone.  [None] when the
   lens is off or saw no pause. *)
let with_own_gc_p99 f =
  let lens = Mae_obs.Runtime.running () in
  if lens then begin
    ignore (Mae_obs.Runtime.poll ());
    Mae_obs.Runtime.reset ()
  end;
  let v = f () in
  let p99 =
    if lens then begin
      ignore (Mae_obs.Runtime.poll ());
      Mae_obs.Runtime.pause_quantile 0.99
    end
    else None
  in
  (v, p99)

let append ~source fields =
  let record =
    Json.Object
      (("ts", Json.Number (Unix.gettimeofday ()))
      :: ("source", Json.String source)
      :: (fields @ [ gc_fields () ]))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.encode record);
  output_char oc '\n';
  close_out oc;
  Printf.printf "perf trajectory appended to %s\n" path

(* Exporters over the recorded spans: Chrome trace-event JSON (load in
   chrome://tracing or https://ui.perfetto.dev, one lane per domain)
   and a plain-text flame summary aggregated by span name. *)

let us t = t *. 1e6

(* Runtime-lens spans are named "gc.<phase>"; give them their own
   category so viewers (and the smoke gates) can tell collector time
   from pipeline time. *)
let cat_of (e : Span.event) =
  if String.length e.name >= 3 && String.equal (String.sub e.name 0 3) "gc."
  then "gc"
  else "mae"

let attr_args attrs =
  match attrs with
  | [] -> ""
  | attrs ->
      let fields =
        List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (Json.escape k) (Json.escape v))
          attrs
      in
      Printf.sprintf ", \"args\": {%s}" (String.concat ", " fields)

(* The runtime lens's GC pause windows join the pipeline spans in the
   Chrome export only, so the lanes show collector pauses interleaved
   with the spans they landed in; [gc_events] is [] while the lens has
   collected nothing.  The flame summary deliberately excludes them:
   GC pauses happen *inside* pipeline spans, and folding them in would
   double-count self time. *)
let to_chrome_string () =
  let events = Span.events () @ Runtime.gc_events () in
  (* rebase timestamps so the trace starts near zero -- keeps the
     microsecond values small and the viewer timeline readable. *)
  let t0 =
    List.fold_left
      (fun acc (e : Span.event) -> Float.min acc e.ts)
      Float.infinity events
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (e : Span.event) -> e.domain) events)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  emit
    "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
     \"args\": {\"name\": \"mae\"}}";
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "  {\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": \"domain %d\"}}"
           d d))
    domains;
  List.iter
    (fun (e : Span.event) ->
      emit
        (Printf.sprintf
           "  {\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": %s, \"cat\": \
            \"%s\", \"ts\": %.3f, \"dur\": %.3f%s}"
           e.domain (Json.escape e.name) (cat_of e)
           (us (e.ts -. t0))
           (us e.dur) (attr_args e.attrs)))
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome ~path = Atomic_file.write ~path (to_chrome_string ())

(* --- flame summary --- *)

type flame_row = {
  span_name : string;
  calls : int;
  total_s : float;  (* sum of span durations (children included) *)
  self_s : float;  (* sum of span durations minus child time *)
}

let flame () =
  let table : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (e : Span.event) ->
      let calls, total, self =
        match Hashtbl.find_opt table e.name with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0., ref 0.) in
            Hashtbl.add table e.name cell;
            cell
      in
      incr calls;
      total := !total +. e.dur;
      self := !self +. e.self)
    (Span.events ());
  Hashtbl.fold
    (fun span_name (calls, total, self) acc ->
      { span_name; calls = !calls; total_s = !total; self_s = !self } :: acc)
    table []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let flame_summary () =
  let rows = flame () in
  let grand_self = List.fold_left (fun acc r -> acc +. r.self_s) 0. rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %8s %12s %12s %7s\n" "span" "calls" "total (ms)"
       "self (ms)" "self%");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %8d %12.2f %12.2f %6.1f%%\n" r.span_name r.calls
           (r.total_s *. 1e3) (r.self_s *. 1e3)
           (if grand_self > 0. then 100. *. r.self_s /. grand_self else 0.)))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%-28s %8s %12s %12.2f %6.1f%%\n" "(sum of self times)" ""
       "" (grand_self *. 1e3) 100.);
  Buffer.contents buf

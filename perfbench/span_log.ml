(* The traced replay's span recorder: one span per call into a layer
   (name, start, end, parent, request id), held in memory and written
   out as JSON lines when the benchmark ends. *)

module Stats = Perfbench_stats.Stats

type t = {
  mutable spans : Stats.span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable rid : int;
}

let create () = { spans = []; next_id = 1; stack = []; rid = 0 }
let set_rid t rid = t.rid <- rid

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let t0 = Mae_obs.Clock.monotonic () in
  let finish () =
    let t1 = Mae_obs.Clock.monotonic () in
    t.stack <- List.tl t.stack;
    t.spans <- { Stats.id; parent; name; rid = t.rid; t0; t1 } :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (s : Stats.span) ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %s, \"name\": %s, \"rid\": %d, \
             \"start_s\": %.9f, \"end_s\": %.9f}\n"
            s.id
            (match s.parent with Some p -> string_of_int p | None -> "null")
            (Mae_obs.Json.escape s.name) s.rid s.t0 s.t1)
        (spans t))

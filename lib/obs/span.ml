(* Timed spans in one log.

   Every closed span of every domain goes into one list behind one
   mutex, the same shape as a Sketch: one short critical section per
   span, and retention bounds the whole log, whichever domains wrote
   it.  The only per-domain state is the open-span stack ([Domain.DLS]),
   which is registered nowhere and dies with its domain, so a process
   that runs many parallel batches keeps no lane per dead worker.

   Spans nest by construction ([with_] is a combinator, not a
   begin/end pair), so each domain's spans form a well-formed forest;
   the [depth] field and the child-duration accumulator let the
   exporter compute self times without re-deriving the tree. *)

type event = {
  name : string;
  attrs : (string * string) list;
  domain : int;  (* Domain.id of the recording domain *)
  depth : int;  (* 0 = root span of its lane *)
  ts : float;  (* monotonic start (Clock.monotonic); never steps *)
  dur : float;  (* seconds *)
  self : float;  (* [dur] minus time spent in child spans *)
}

(* The open-span stack of one domain: one accumulator per open span,
   innermost first, holding the total duration of its already closed
   children.  Private to its domain and registered nowhere, so it dies
   with the domain. *)
let open_spans : float list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* 0 = keep everything (batch-CLI behavior).  A resident server sets a
   cap: the log trims to the most recent [limit] events once it holds
   twice that, so memory stays bounded and /tracez serves a recent
   window. *)
let retention = Atomic.make 0

let set_retention = function
  | None -> Atomic.set retention 0
  | Some n ->
      if n < 1 then invalid_arg "Mae_obs.Span.set_retention: limit < 1";
      Atomic.set retention n

let truncate n l =
  let rec go acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

(* The one log: every closed span of every domain, most recently closed
   first. *)
let lock = Mutex.create ()
let log : event list ref = ref []
let log_length = ref 0

(* Monotonic: a wall-clock step mid-span must not produce negative or
   inflated durations.  Exporters needing epoch timestamps convert via
   Clock.wall_of_monotonic. *)
let now = Clock.monotonic

(* Append a closed span.  Its end instant is read under the lock, so
   the log is in closing order across domains -- what makes
   [events_since]'s early stop exact. *)
let record ~name ~attrs ~depth ~start ~children =
  Mutex.lock lock;
  let dur = now () -. start in
  log :=
    {
      name;
      attrs;
      domain = (Domain.self () :> int);
      depth;
      ts = start;
      dur;
      self = Float.max 0. (dur -. children);
    }
    :: !log;
  incr log_length;
  let limit = Atomic.get retention in
  if limit > 0 && !log_length > 2 * limit then begin
    log := truncate limit !log;
    log_length := limit
  end;
  Mutex.unlock lock;
  dur

(* The one timer: a span given a summary observes into it the very
   [dur] it records, so a timed region reads the clock once at each
   end. *)
let with_ ?(attrs = []) ?summary ~name f =
  if not (Control.enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get open_spans in
    let start = now () in
    stack := 0. :: !stack;
    let close () =
      let children, outer =
        match !stack with
        | c :: rest -> (c, rest)
        | [] -> (0., [])  (* unbalanced only if [reset] raced a span *)
      in
      let dur =
        record ~name ~attrs ~depth:(List.length outer) ~start ~children
      in
      Option.iter (fun sk -> Sketch.observe sk dur) summary;
      (* we are a closed child of the enclosing span, if any *)
      stack := (match outer with p :: up -> (p +. dur) :: up | [] -> [])
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A leaf span whose start the caller read: for a region that is known
   to deserve a span only once it has run (a decode that yielded a
   frame).  It counts as a closed child of the enclosing span. *)
let close_since ~name start =
  if not (Control.enabled ()) then 0.
  else begin
    let stack = Domain.DLS.get open_spans in
    let dur =
      record ~name ~attrs:[] ~depth:(List.length !stack) ~start ~children:0.
    in
    (match !stack with p :: up -> stack := (p +. dur) :: up | [] -> ());
    dur
  end

let by_domain_then_start a b =
  match Int.compare a.domain b.domain with
  | 0 -> Float.compare a.ts b.ts
  | c -> c

let events () =
  Mutex.lock lock;
  let l = !log in
  Mutex.unlock lock;
  List.sort by_domain_then_start l

(* Spans recorded at or after a monotonic instant.  The log is in
   closing order, and a span starting at or after [since] closes at or
   after it, so the scan stops at the first span that closed before
   [since] instead of walking the whole retention window.  Serve uses
   this to pull out exactly the span tree of the request that just
   finished. *)
let events_since since =
  Mutex.lock lock;
  let l = !log in
  Mutex.unlock lock;
  let rec take acc = function
    | e :: rest when e.ts +. e.dur >= since ->
        take (if e.ts >= since then e :: acc else acc) rest
    | _ -> acc
  in
  List.sort by_domain_then_start (take [] l)

let reset () =
  Mutex.lock lock;
  log := [];
  log_length := 0;
  Mutex.unlock lock;
  Domain.DLS.get open_spans := []

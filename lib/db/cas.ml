(* The content-addressed estimate store.

   A key is a digest over everything that determines an estimate:

     - the canonical circuit text (Mae_netlist.Canonical -- structure,
       not construction order),
     - the process fingerprint (every parameter that can influence a
       number),
     - the methodology registry version (names + epoch), and
     - the resolved method-name set the caller will run.

   Invalidation is therefore by construction: retune a process, register
   or rename an estimator, or bump the registry epoch, and every old key
   simply stops being looked up.  There is no invalidation protocol to
   get wrong.

   One LRU-capped table backs the store, and it holds one compact entry
   type: the module name and technology, the resolved method results,
   and the device/net/port counts a Store snapshot row needs.  A hit
   rebuilds the report around the caller's circuit and process -- the
   pair the caller computed the key from -- with [issues = []] and
   [expanded = None]: validation warnings and the transistor-level
   expansion are not part of any serve answer, and keeping them pinned
   cost ~30k words per entry.  Journal replay inserts the same entry
   type through the same cap.

   Journal robustness: appends are sequential, so the only corruption a
   crash can produce is a torn final entry.  Replay skips any malformed
   block and resyncs at the next entry header. *)

module D = Mae.Driver
module M = Mae.Methodology
module C = Mae_netlist.Circuit

(* Entries thread an intrusive doubly-linked recency list: head is most
   recently touched, tail is the LRU eviction victim. *)
type entry = {
  key : string;
  module_name : string;
  technology : string;
  results : D.method_result list;
  mutable counts : (int * int * int) option;
      (* devices, nets, ports; a journal-replayed entry learns them from
         the circuit of its first hit *)
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  lock : Mutex.t;
  live_cap : int option;
  table : (string, entry) Hashtbl.t;
  mutable lru_head : entry option;
  mutable lru_tail : entry option;
  mutable journal : out_channel option;
}

let hits =
  Mae_obs.Metrics.counter "mae_estimate_cache_hits_total"
    ~help:"Estimate-store lookups answered from the content-addressed store"

let misses =
  Mae_obs.Metrics.counter "mae_estimate_cache_misses_total"
    ~help:"Estimate-store lookups that fell through to estimation"

let evictions =
  Mae_obs.Metrics.counter "mae_estimate_cache_evictions_total"
    ~help:"Estimate-store entries evicted by the LRU cap"

let hit_count () = Mae_obs.Metrics.counter_value hits
let miss_count () = Mae_obs.Metrics.counter_value misses
let eviction_count () = Mae_obs.Metrics.counter_value evictions

let create ?live_cap () =
  (match live_cap with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Cas.create: live_cap %d < 1" c)
  | _ -> ());
  {
    lock = Mutex.create ();
    live_cap;
    table = Hashtbl.create 64;
    lru_head = None;
    lru_tail = None;
    journal = None;
  }

(* --- recency list (call with t.lock held) --- *)

let detach t e =
  (match e.prev with
  | Some p -> p.next <- e.next
  | None -> t.lru_head <- e.next);
  (match e.next with
  | Some s -> s.prev <- e.prev
  | None -> t.lru_tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.lru_head;
  (match t.lru_head with Some h -> h.prev <- Some e | None -> ());
  t.lru_head <- Some e;
  if t.lru_tail = None then t.lru_tail <- Some e

let touch t e =
  if t.lru_head != Some e then begin
    detach t e;
    push_front t e
  end

let enforce_cap t =
  match t.live_cap with
  | None -> ()
  | Some cap ->
      let rec evict () =
        if Hashtbl.length t.table > cap then
          match t.lru_tail with
          | None -> () (* unreachable: every entry is on the list *)
          | Some victim ->
              detach t victim;
              Hashtbl.remove t.table victim.key;
              Mae_obs.Metrics.incr evictions;
              evict ()
      in
      evict ()

(* first write wins: a key already held is only touched *)
let insert t e =
  match Hashtbl.find_opt t.table e.key with
  | Some held -> touch t held
  | None ->
      Hashtbl.replace t.table e.key e;
      push_front t e;
      enforce_cap t

let counts c = (C.device_count c, C.net_count c, C.port_count c)

let key ?(methods = M.default_names) ~process circuit =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "mae-cas-key 1\n%sprocess %s\nregistry %s\nmethods %s\n"
          (Mae_netlist.Canonical.to_string circuit)
          (Mae_tech.Process.fingerprint process)
          (M.registry_version ())
          (String.concat "," methods)))

(* --- outcome (de)serialization: one "method" line per result --- *)

let ratio a = (a : Mae_geom.Aspect.t :> float)

let sc_string (e : Mae.Estimate.stdcell) =
  Printf.sprintf "%d %d %d %h %h %h %h %h" e.rows e.tracks e.feed_throughs
    e.height e.width e.area (ratio e.aspect) (ratio e.aspect_raw)

let outcome_string = function
  | M.Stdcell { auto; sweep } ->
      Printf.sprintf "stdcell %s sweep %d%s" (sc_string auto)
        (List.length sweep)
        (String.concat ""
           (List.map (fun e -> " " ^ sc_string e) sweep))
  | M.Fullcustom (f : Mae.Estimate.fullcustom) ->
      Printf.sprintf "fullcustom %h %h %h %h %h %h %h" f.device_area
        f.wire_area f.area f.width f.height (ratio f.aspect)
        (ratio f.aspect_raw)
  | M.Gatearray (g : Mae.Gatearray.estimate) ->
      Printf.sprintf "gatearray %d %d %d %d %h %h %h %h %h %b"
        g.gate_equivalents g.sites g.array_rows g.array_columns g.width
        g.height g.area (ratio g.aspect) g.expected_tracks_per_channel
        g.routable
  | M.Scalar s -> Printf.sprintf "scalar %h %h %h" s.area s.width s.height

let result_string = function
  | Ok o -> outcome_string o
  | Error e -> (
      match e with
      | M.Unknown_method n -> Printf.sprintf "error unknown-method %s" (Escape.quote n)
      | M.Unsupported { methodology; reason } ->
          Printf.sprintf "error unsupported %s %s" (Escape.quote methodology)
            (Escape.quote reason)
      | M.Invalid_input { methodology; reason } ->
          Printf.sprintf "error invalid-input %s %s" (Escape.quote methodology)
            (Escape.quote reason)
      | M.Estimator_failure { methodology; reason } ->
          Printf.sprintf "error estimator-failure %s %s"
            (Escape.quote methodology) (Escape.quote reason))

let entry_string ~key (r : D.module_report) =
  let b = Buffer.create 512 in
  Printf.bprintf b "entry %s\n" key;
  Printf.bprintf b "module %s technology %s\n"
    (Escape.quote r.circuit.C.name)
    (Escape.quote r.circuit.C.technology);
  List.iter
    (fun (mr : D.method_result) ->
      Printf.bprintf b "method %s %s\n"
        (Escape.quote (M.name mr.methodology))
        (result_string mr.outcome))
    r.results;
  Buffer.add_string b "end\n";
  Buffer.contents b

exception Bad of string

let fl s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Bad ("bad float " ^ s))

let it s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Bad ("bad int " ^ s))

let asp s =
  let f = fl s in
  if Float.is_finite f && f > 0. then Mae_geom.Aspect.of_ratio f
  else raise (Bad ("bad aspect ratio " ^ s))

let parse_sc = function
  | r :: t :: f :: h :: w :: a :: a1 :: a2 :: rest ->
      ( {
          Mae.Estimate.rows = it r;
          tracks = it t;
          feed_throughs = it f;
          height = fl h;
          width = fl w;
          area = fl a;
          aspect = asp a1;
          aspect_raw = asp a2;
        },
        rest )
  | _ -> raise (Bad "truncated stdcell estimate")

let parse_result = function
  | "stdcell" :: rest -> (
      let auto, rest = parse_sc rest in
      match rest with
      | "sweep" :: k :: rest ->
          let k = it k in
          let rec go n acc rest =
            if n = 0 then (List.rev acc, rest)
            else
              let e, rest = parse_sc rest in
              go (n - 1) (e :: acc) rest
          in
          let sweep, rest = go k [] rest in
          if rest <> [] then raise (Bad "trailing stdcell tokens");
          Ok (M.Stdcell { auto; sweep })
      | _ -> raise (Bad "stdcell estimate missing sweep"))
  | [ "fullcustom"; da; wa; a; w; h; a1; a2 ] ->
      Ok
        (M.Fullcustom
           {
             device_area = fl da;
             wire_area = fl wa;
             area = fl a;
             width = fl w;
             height = fl h;
             aspect = asp a1;
             aspect_raw = asp a2;
           })
  | [ "gatearray"; ge; s; ar; ac; w; h; a; a1; tr; routable ] ->
      Ok
        (M.Gatearray
           {
             gate_equivalents = it ge;
             sites = it s;
             array_rows = it ar;
             array_columns = it ac;
             width = fl w;
             height = fl h;
             area = fl a;
             aspect = asp a1;
             expected_tracks_per_channel = fl tr;
             routable =
               (match routable with
               | "true" -> true
               | "false" -> false
               | _ -> raise (Bad "bad routable flag"));
           })
  | [ "scalar"; a; w; h ] -> Ok (M.Scalar { area = fl a; width = fl w; height = fl h })
  | "error" :: tag :: rest ->
      Error
        (match (tag, rest) with
        | "unknown-method", [ n ] -> M.Unknown_method n
        | "unsupported", [ m; r ] -> M.Unsupported { methodology = m; reason = r }
        | "invalid-input", [ m; r ] -> M.Invalid_input { methodology = m; reason = r }
        | "estimator-failure", [ m; r ] ->
            M.Estimator_failure { methodology = m; reason = r }
        | _ -> raise (Bad "bad error payload"))
  | kind :: _ -> raise (Bad ("unknown outcome kind " ^ kind))
  | [] -> raise (Bad "empty method payload")

(* --- the store proper --- *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~key:k ~circuit ~process =
  let r =
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some e
          when String.equal e.module_name circuit.C.name
               && String.equal e.technology circuit.C.technology ->
            touch t e;
            if Option.is_none e.counts then e.counts <- Some (counts circuit);
            Some
              {
                D.circuit;
                process;
                issues = [];
                expanded = None;
                results = e.results;
              }
        | Some _ | None -> None)
  in
  (match r with
  | Some _ -> Mae_obs.Metrics.incr hits
  | None -> Mae_obs.Metrics.incr misses);
  r

let store t ~key:k (r : D.module_report) =
  locked t (fun () ->
      if not (Hashtbl.mem t.table k) then begin
        insert t
          {
            key = k;
            module_name = r.circuit.C.name;
            technology = r.circuit.C.technology;
            results = r.results;
            counts = Some (counts r.circuit);
            prev = None;
            next = None;
          };
        match t.journal with
        | None -> ()
        | Some oc -> (
            try
              output_string oc (entry_string ~key:k r);
              flush oc
            with Sys_error _ ->
              (* a dying disk must not take estimation down; the store
                 keeps serving from memory without persistence *)
              (try close_out_noerr oc with _ -> ());
              t.journal <- None)
      end)

let length t = locked t (fun () -> Hashtbl.length t.table)

(* --- journal --- *)

let parse_journal ~add lines =
  (* Best-effort replay: a malformed block (a torn tail from a crash
     mid-append, or bit rot) is skipped and parsing resyncs at the next
     "entry" header.  Skipping is always safe for a cache -- a dropped
     entry is just a future miss.  Each parsed entry goes to [add] as it
     is read, so a long journal never materializes past the cap.
     Returns (loaded, skipped_blocks). *)
  let n = Array.length lines in
  let is_entry l = String.length l >= 6 && String.sub l 0 6 = "entry " in
  let loaded = ref 0 in
  let skipped = ref 0 in
  let next_entry j =
    let j = ref j in
    while !j < n && not (is_entry (String.trim lines.(!j))) do
      incr j
    done;
    !j
  in
  let parse_block i =
    (* lines.(i) is an entry header; Some (entry, next_line) or None *)
    try
      let k =
        match Escape.tokens (String.trim lines.(i)) with
        | Ok [ "entry"; k ] -> k
        | Ok _ | Error _ -> raise (Bad "bad entry header")
      in
      let meta = ref None in
      let results = ref [] in
      let closed = ref false in
      let j = ref (i + 1) in
      while (not !closed) && !j < n && not (is_entry (String.trim lines.(!j))) do
        (let l = String.trim lines.(!j) in
         if l = "" then ()
         else
           match Escape.tokens l with
           | Error e -> raise (Bad e)
           | Ok [ "end" ] -> closed := true
           | Ok [ "module"; m; "technology"; tech ] -> meta := Some (m, tech)
           | Ok ("method" :: name :: payload) -> (
               (* a methodology no longer registered drops the entry *)
               match M.find name with
               | None -> raise (Bad ("unregistered methodology " ^ name))
               | Some m ->
                   results :=
                     { D.methodology = m; outcome = parse_result payload }
                     :: !results)
           | Ok _ -> raise (Bad "unrecognized journal line"));
        incr j
      done;
      if not !closed then raise (Bad "unterminated entry");
      match !meta with
      | None -> raise (Bad "entry without module line")
      | Some (m, tech) ->
          Some
            ( {
                key = k;
                module_name = m;
                technology = tech;
                results = List.rev !results;
                counts = None;
                prev = None;
                next = None;
              },
              !j )
    with Bad _ -> None
  in
  let i = ref 0 in
  while !i < n do
    let line = String.trim lines.(!i) in
    if line = "" then incr i
    else if not (is_entry line) then begin
      incr skipped;
      i := next_entry (!i + 1)
    end
    else
      match parse_block !i with
      | Some (e, j) ->
          add e;
          incr loaded;
          i := j
      | None ->
          incr skipped;
          i := next_entry (!i + 1)
  done;
  (!loaded, !skipped)

let open_journal t ~path =
  let read_lines () =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          Array.of_list (String.split_on_char '\n' text))
    end
    else [||]
  in
  match read_lines () with
  | exception Sys_error e -> Error e
  | lines -> (
      match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
      | exception Sys_error e -> Error e
      | oc ->
          locked t (fun () ->
              t.journal <- Some oc;
              Ok (parse_journal ~add:(insert t) lines)))

let close_journal t =
  locked t (fun () ->
      match t.journal with
      | None -> ()
      | Some oc ->
          (try close_out oc with Sys_error _ -> ());
          t.journal <- None)

let to_store t =
  let s = Store.create () in
  locked t (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e.counts with
          | None -> ()
          | Some (devices, nets, ports) -> (
              match
                Record.of_results ~module_name:e.module_name
                  ~technology:e.technology ~devices ~nets ~ports e.results
              with
              | Ok record -> Store.add s record
              | Error _ -> ()))
        t.table);
  s

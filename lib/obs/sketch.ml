(* Greenwald–Khanna quantile summaries behind one lock per sketch.

   A sketch holds a flat sample buffer and one GK summary, both guarded
   by [sk_lock].  [observe] stores a sample and folds the buffer into
   the summary when it fills; reads fold whatever is pending, then
   query the summary.  [quantile_of_many] answers rank queries over the
   concatenation of several sketches' summaries -- the classic
   mergeable-summary argument gives a combined rank error of
   sum_i eps_i * n_i.

   GK invariant maintained here: every tuple (v, g, d) satisfies
   g + d <= floor(2 * eps * n) (new tuples get
   d = floor(2 eps n) - 1, compression merges a tuple into its right
   neighbour only while the sum respects the cap), which bounds the
   rank uncertainty of any query by eps * n.  The first and last
   tuples are never merged away, so min and max stay exact. *)

let buf_cap = 256
let exemplar_slots = 4

type tuple = { v : float; g : int; d : int }

type summary = {
  s_n : int;
  s_sum : float;
  s_min : float;  (* nan when empty *)
  s_max : float;
  s_tuples : tuple list;  (* ascending v *)
}

let empty_summary =
  { s_n = 0; s_sum = 0.; s_min = Float.nan; s_max = Float.nan; s_tuples = [] }

type exemplar = { ex_v : float; ex_label : string; ex_wall : float }

type t = {
  sk_name : string;
  sk_labels : (string * string) list;  (* sorted by key; [] = unlabeled *)
  sk_help : string;
  sk_eps : float;
  sk_lock : Mutex.t;  (* guards sk_buf, sk_n and sk_summary *)
  sk_buf : float array;
  mutable sk_n : int;  (* pending samples in sk_buf *)
  mutable sk_summary : summary;
  sk_exemplars : exemplar option Atomic.t array;
}

let name t = t.sk_name
let labels t = t.sk_labels
let eps t = t.sk_eps

(* Canonical "k=v,k=v" form: the registry key suffix and the sort key
   that keeps a family's series adjacent in [all]. *)
let label_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let lint_labels labels =
  let ok_key k =
    String.length k > 0
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         k
    && not (k.[0] >= '0' && k.[0] <= '9')
  in
  let ok_value v =
    String.for_all (fun c -> c <> '"' && c <> '\\' && c <> '\n') v
  in
  List.iter
    (fun (k, v) ->
      if not (ok_key k) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Sketch: invalid label name %S" k);
      if not (ok_value v) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Sketch: invalid label value %S" v))
    labels;
  if
    List.length (List.sort_uniq String.compare (List.map fst labels))
    <> List.length labels
  then invalid_arg "Mae_obs.Sketch: duplicate label name"

(* --- GK core --- *)

let cap_of eps n = int_of_float (2. *. eps *. float_of_int n)

(* Insert an ascending batch, one logical observation at a time (the
   running count [n] grows per element, so each new tuple's d is taken
   at its own insertion time -- the conservative choice). *)
let insert_sorted eps s values =
  if values = [] then s
  else begin
    let n = ref s.s_n in
    let rec go tuples values acc =
      match (tuples, values) with
      | _, [] -> List.rev_append acc tuples
      | t :: ts, v :: _ when v >= t.v -> go ts values (t :: acc)
      | _, v :: vs ->
          (* new minimum (acc = []) or new maximum (tuples = []) are
             exact; interior inserts get the GK delta *)
          let d =
            if acc = [] || tuples = [] then 0
            else max 0 (cap_of eps !n - 1)
          in
          incr n;
          go tuples vs ({ v; g = 1; d } :: acc)
    in
    let tuples = go s.s_tuples values [] in
    let vmin = List.hd values in
    let vmax = List.fold_left (fun _ v -> v) vmin values in
    {
      s_n = !n;
      s_sum = List.fold_left ( +. ) s.s_sum values;
      s_min = (if Float.is_nan s.s_min then vmin else Float.min s.s_min vmin);
      s_max = (if Float.is_nan s.s_max then vmax else Float.max s.s_max vmax);
      s_tuples = tuples;
    }
  end

let compress eps s =
  match s.s_tuples with
  | [] | [ _ ] -> s
  | first :: rest ->
      let cap = cap_of eps s.s_n in
      let rec go acc = function
        | t1 :: t2 :: ts when t1.g + t2.g + t2.d <= cap ->
            go acc ({ t2 with g = t1.g + t2.g } :: ts)
        | t :: ts -> go (t :: acc) ts
        | [] -> List.rev acc
      in
      { s with s_tuples = first :: go [] rest }

(* Rank query over the concatenation of summaries (tuples pre-sorted
   by value): pick the tuple whose [rmin, rmax] interval sits closest
   to the target rank. *)
let query_sorted tuples n q =
  if n = 0 then None
  else begin
    let r =
      max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))
    in
    let best_err = ref max_int and best_v = ref Float.nan in
    let rmin = ref 0 in
    List.iter
      (fun t ->
        rmin := !rmin + t.g;
        let rmax = !rmin + t.d in
        let err = max (r - !rmin) (rmax - r) in
        if err < !best_err then begin
          best_err := err;
          best_v := t.v
        end)
      tuples;
    if !best_err = max_int then None else Some !best_v
  end

(* --- registry and buffering --- *)

let registry_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 8

(* Fold the pending samples into the summary.  Caller holds sk_lock. *)
let fold_buffer t =
  if t.sk_n > 0 then begin
    let values =
      List.sort Float.compare (Array.to_list (Array.sub t.sk_buf 0 t.sk_n))
    in
    t.sk_summary <-
      compress t.sk_eps (insert_sorted t.sk_eps t.sk_summary values);
    t.sk_n <- 0
  end

(* The summary with every observed sample folded in. *)
let summary t =
  Mutex.protect t.sk_lock (fun () ->
      fold_buffer t;
      t.sk_summary)

let create ?(help = "") ?eps ?(labels = []) name =
  Metrics.lint_name ~what:"Mae_obs.Sketch" name;
  lint_labels labels;
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  (match eps with
  | Some e when not (e > 0. && e < 0.5) ->
      invalid_arg "Mae_obs.Sketch: eps must be in (0, 0.5)"
  | _ -> ());
  let key = name ^ "{" ^ label_key labels ^ "}" in
  Mutex.lock registry_lock;
  let result =
    match Hashtbl.find_opt registry key with
    | Some t -> (
        match eps with
        | Some e when e <> t.sk_eps -> Error t.sk_eps
        | _ -> Ok t)
    | None ->
        let eps = Option.value eps ~default:0.001 in
        let t =
          {
            sk_name = name;
            sk_labels = labels;
            sk_help = help;
            sk_eps = eps;
            sk_lock = Mutex.create ();
            sk_buf = Array.make buf_cap 0.;
            sk_n = 0;
            sk_summary = empty_summary;
            sk_exemplars =
              Array.init exemplar_slots (fun _ -> Atomic.make None);
          }
        in
        Hashtbl.add registry key t;
        Ok t
  in
  Mutex.unlock registry_lock;
  match result with
  | Ok t -> t
  | Error existing ->
      invalid_arg
        (Printf.sprintf
           "Mae_obs.Sketch: %s already registered with eps %g" name existing)

let observe t v =
  Mutex.protect t.sk_lock (fun () ->
      t.sk_buf.(t.sk_n) <- v;
      t.sk_n <- t.sk_n + 1;
      if t.sk_n >= buf_cap then fold_buffer t)

let time t f =
  if not (Control.enabled ()) then f ()
  else begin
    let t0 = Clock.monotonic () in
    match f () with
    | v ->
        observe t (Clock.monotonic () -. t0);
        v
    | exception e ->
        observe t (Clock.monotonic () -. t0);
        raise e
  end

let offer_exemplar t ~label v =
  let slots = t.sk_exemplars in
  let min_i = ref 0 and min_v = ref Float.infinity and empty = ref (-1) in
  Array.iteri
    (fun i slot ->
      match Atomic.get slot with
      | None -> if !empty < 0 then empty := i
      | Some e ->
          if e.ex_v < !min_v then begin
            min_v := e.ex_v;
            min_i := i
          end)
    slots;
  if !empty >= 0 then
    Atomic.set slots.(!empty)
      (Some { ex_v = v; ex_label = label; ex_wall = Clock.wall () })
  else if v > !min_v then
    Atomic.set slots.(!min_i)
      (Some { ex_v = v; ex_label = label; ex_wall = Clock.wall () })

let observe_exemplar t ~label v =
  observe t v;
  offer_exemplar t ~label v

let all () =
  Mutex.lock registry_lock;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort
    (fun a b ->
      match String.compare a.sk_name b.sk_name with
      | 0 -> String.compare (label_key a.sk_labels) (label_key b.sk_labels)
      | c -> c)
    l

(* --- reads --- *)

let quantile t q =
  let s = summary t in
  query_sorted s.s_tuples s.s_n q

(* Pooled rank query across several sketches (e.g. one per domain
   label): classic mergeable-summary argument again, total rank error
   sum_i eps_i * n_i. *)
let quantile_of_many ts q =
  let ss = List.map summary ts in
  let tuples =
    List.concat_map (fun s -> s.s_tuples) ss
    |> List.sort (fun a b -> Float.compare a.v b.v)
  in
  let n = List.fold_left (fun acc s -> acc + s.s_n) 0 ss in
  query_sorted tuples n q

type snapshot = {
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
  eps : float;
  quantiles : (float * float) list;
  exemplars : (float * string * float) list;
  tuples : int;
}

let default_qs = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let exemplars t =
  Array.to_list t.sk_exemplars
  |> List.filter_map (fun slot ->
         Option.map
           (fun e -> (e.ex_v, e.ex_label, e.ex_wall))
           (Atomic.get slot))
  |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)

let snapshot ?(qs = default_qs) t =
  let s = summary t in
  {
    n = s.s_n;
    sum = s.s_sum;
    min_v = s.s_min;
    max_v = s.s_max;
    eps = t.sk_eps;
    quantiles =
      List.filter_map
        (fun q ->
          Option.map (fun v -> (q, v)) (query_sorted s.s_tuples s.s_n q))
        qs;
    exemplars = exemplars t;
    tuples = List.length s.s_tuples;
  }

let rank_error_bound t ~n ~domains =
  (t.sk_eps *. float_of_int n) +. float_of_int domains

let reset t =
  Mutex.protect t.sk_lock (fun () ->
      t.sk_n <- 0;
      t.sk_summary <- empty_summary);
  Array.iter (fun slot -> Atomic.set slot None) t.sk_exemplars

(* --- exposition --- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* "{domain="0",quantile="0.5"}" -- the sketch's own labels plus an
   optional quantile, or "" when there is neither. *)
let render_labels ?quantile t =
  let pairs =
    t.sk_labels
    @ match quantile with Some q -> [ ("quantile", float_repr q) ] | None -> []
  in
  match pairs with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) pairs)
      ^ "}"

let to_prometheus () =
  let buf = Buffer.create 512 in
  (* [all] sorts by (name, labels): a family's labelled series are
     adjacent, and HELP/TYPE are emitted once per family name. *)
  let last_family = ref "" in
  List.iter
    (fun t ->
      let s = snapshot t in
      if not (String.equal !last_family t.sk_name) then begin
        last_family := t.sk_name;
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" t.sk_name
             (if String.equal t.sk_help "" then t.sk_name else t.sk_help));
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" t.sk_name)
      end;
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" t.sk_name
               (render_labels ~quantile:q t)
               (float_repr v)))
        s.quantiles;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" t.sk_name (render_labels t)
           (float_repr s.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" t.sk_name (render_labels t) s.n);
      List.iter
        (fun (v, label, wall) ->
          (* OpenMetrics-flavoured exemplar, kept as a comment so plain
             Prometheus text parsers stay happy; the label is a request
             id resolvable at /tracez. *)
          Buffer.add_string buf
            (Printf.sprintf "# EXEMPLAR %s {request_id=\"%s\"} %s %s\n"
               t.sk_name label (float_repr v) (float_repr wall)))
        s.exemplars)
    (all ());
  Buffer.contents buf

let to_json_body () =
  let sketch_json t =
    let s = snapshot t in
    let base =
      (if t.sk_labels = [] then []
       else
         [
           ( "labels",
             Json.Object
               (List.map (fun (k, v) -> (k, Json.String v)) t.sk_labels) );
         ])
      @ [
        ("eps", Json.Number s.eps);
        ("count", Json.Number (float_of_int s.n));
        ("sum", Json.Number s.sum);
        ("tuples", Json.Number (float_of_int s.tuples));
      ]
    in
    let extremes =
      if s.n = 0 then []
      else [ ("min", Json.Number s.min_v); ("max", Json.Number s.max_v) ]
    in
    let quantiles =
      ( "quantiles",
        Json.Object
          (List.map (fun (q, v) -> (float_repr q, Json.Number v)) s.quantiles)
      )
    in
    let exemplars =
      ( "exemplars",
        Json.Array
          (List.map
             (fun (v, label, wall) ->
               Json.Object
                 [
                   ("value", Json.Number v);
                   ("label", Json.String label);
                   ("ts", Json.Number wall);
                 ])
             s.exemplars) )
    in
    let key =
      if t.sk_labels = [] then t.sk_name
      else t.sk_name ^ "{" ^ label_key t.sk_labels ^ "}"
    in
    (key, Json.Object (base @ extremes @ [ quantiles; exemplars ]))
  in
  Json.encode (Json.Object (List.map sketch_json (all ())))

(* Splice sketches into the shared /metrics dumps. *)
let () =
  Metrics.register_exposition ~key:"sketches" ~prometheus:to_prometheus
    ~json:to_json_body

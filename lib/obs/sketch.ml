(* Greenwald–Khanna quantile summaries behind one lock per sketch.

   A sketch has no name; {!Metrics.summary} registers and exports it.
   It holds a flat sample buffer and one GK summary, both guarded
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
  sk_eps : float;
  sk_lock : Mutex.t;  (* guards sk_buf, sk_n and sk_summary *)
  sk_buf : float array;
  mutable sk_n : int;  (* pending samples in sk_buf *)
  mutable sk_summary : summary;
  sk_exemplars : exemplar option Atomic.t array;
}

let eps t = t.sk_eps

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

(* --- buffering --- *)

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

let create ?(eps = 0.001) () =
  if not (eps > 0. && eps < 0.5) then
    invalid_arg "Mae_obs.Sketch: eps must be in (0, 0.5)";
  {
    sk_eps = eps;
    sk_lock = Mutex.create ();
    sk_buf = Array.make buf_cap 0.;
    sk_n = 0;
    sk_summary = empty_summary;
    sk_exemplars = Array.init exemplar_slots (fun _ -> Atomic.make None);
  }

let observe t v =
  Mutex.protect t.sk_lock (fun () ->
      t.sk_buf.(t.sk_n) <- v;
      t.sk_n <- t.sk_n + 1;
      if t.sk_n >= buf_cap then fold_buffer t)

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

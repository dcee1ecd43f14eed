let quantile sorted pm =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if pm < 1 || pm > 1000 then invalid_arg "Stats.quantile: per mille";
  (* rank = ceil (pm * n / 1000), in integers so p99 of 1000 is exact *)
  let rank = ((pm * n) + 999) / 1000 in
  sorted.(max 0 (rank - 1))

let sort a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile a pm = quantile (sort a) pm
let median a = percentile a 500

let median_of_windows ~windows a =
  let n = Array.length a in
  if windows < 1 || n < windows then invalid_arg "Stats.median_of_windows";
  median
    (Array.init windows (fun w ->
         let lo = w * n / windows and hi = (w + 1) * n / windows in
         median (Array.sub a lo (hi - lo))))

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. Float.of_int (Array.length a)

let beyond n pm = n - (((pm * n) + 999) / 1000)
let tail_menu = [ 999; 990; 950; 900; 750; 500 ]

let tail ?(min_beyond = 10) a =
  let n = Array.length a in
  match List.find_opt (fun pm -> n > 0 && beyond n pm >= min_beyond) tail_menu with
  | None -> None
  | Some pm -> Some (pm, percentile a pm)

type span = {
  id : int;
  parent : int option;
  name : string;
  rid : int;
  t0 : float;
  t1 : float;
}

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.t0, s.t1)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

let self_by_name spans =
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.name with
      | Some t -> Hashtbl.replace totals s.name (t +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.add totals s.name self)
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

type rung = {
  rate : float;
  latencies : float array;
  backlog_end : int;
  achieved : float;
}

let rung_p99 r =
  if Array.length r.latencies = 0 then Float.infinity
  else percentile r.latencies 990

let rung_passes ~limit r =
  rung_p99 r < limit && Float.of_int r.backlog_end <= r.rate *. limit

let max_rate ~limit rungs =
  let rungs = List.sort (fun a b -> Float.compare a.rate b.rate) rungs in
  let rec climb best = function
    | [] -> best
    | r :: rest -> if rung_passes ~limit r then climb (Some r) rest else best
  in
  climb None rungs

let unattributed ~total parts =
  if not (total > 0.) then invalid_arg "Stats.unattributed: total <= 0";
  (total -. List.fold_left ( +. ) 0. parts) /. total

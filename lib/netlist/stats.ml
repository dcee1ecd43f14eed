exception Unknown_kind of string

type t = {
  device_count : int;
  net_count : int;
  port_count : int;
  width_classes : (Mae_geom.Lambda.t * int) list;
  average_width : Mae_geom.Lambda.t;
  average_height : Mae_geom.Lambda.t;
  total_device_area : Mae_geom.Lambda.area;
  degree_histogram : (int * int) list;
  max_degree : int;
  net_degrees : int array;
  net_widths : Mae_geom.Lambda.t array;
}

(* Each distinct kind string goes to [Process.find_device] once per
   resolver: [names] / [kinds] hold the kinds found so far, at most one
   entry per kind the process defines, matched by physical equality
   first (a circuit's devices, and a cell's transistors, share their
   kind strings) and then by [String.equal].  An unknown kind is not
   kept, so hostile kind strings cannot grow the scan. *)
let resolver (process : Mae_tech.Process.t) =
  let capacity = Array.length process.device_index in
  let names = Array.make capacity "" and kinds = Array.make capacity None in
  let known = ref 0 in
  let rec same s i =
    if i = !known then -1 else if names.(i) == s then i else same s (i + 1)
  in
  let rec equal s i =
    if i = !known then -1
    else if String.equal names.(i) s then i
    else equal s (i + 1)
  in
  fun s ->
    let i = match same s 0 with -1 -> equal s 0 | i -> i in
    if i >= 0 then kinds.(i)
    else begin
      match Mae_tech.Process.find_device process s with
      | None -> None
      | Some _ as k ->
          names.(!known) <- s;
          kinds.(!known) <- k;
          incr known;
          k
    end

(* The result starts as [None]s and is filled in place: [Array.map]
   would start it from a young [Some], and an array too large for the
   minor heap made from a young value forces a minor collection. *)
let device_kinds (c : Circuit.t) process =
  let resolve = resolver process in
  let devices = c.devices in
  let out = Array.make (Array.length devices) None in
  for i = 0 to Array.length devices - 1 do
    out.(i) <- resolve devices.(i).kind
  done;
  out

let kind_exn (c : Circuit.t) kinds i =
  match Array.unsafe_get kinds i with
  | Some k -> k
  | None -> raise (Unknown_kind c.devices.(i).kind)

let device_widths c process =
  let kinds = device_kinds c process in
  Array.init (Array.length kinds) (fun i -> (kind_exn c kinds i).width)

(* Devices share a handful of kind records, so widths are tallied per
   kind (physical equality) rather than sorting one float per device,
   and the degree histogram is a counting sort over net degrees.  The
   three sums sit in a float array, so adding to them allocates
   nothing.  Every float fold runs in device order, so the results are
   bit-for-bit what the straightforward sort-and-group produced. *)
type tally = {
  sums : float array;  (* width, height, area *)
  mutable devices : int;
  mutable classes : (Mae_tech.Device_kind.t * int ref) list;
      (* distinct kind records in first-seen order; a process defines
         ~10, so a physical-equality scan beats any hashing *)
}

let tally () = { sums = Array.make 3 0.; devices = 0; classes = [] }

let rec count_class t k = function
  | (k', r) :: rest -> if k' == k then incr r else count_class t k rest
  | [] -> t.classes <- (k, ref 1) :: t.classes

let add t (k : Mae_tech.Device_kind.t) =
  let s = t.sums in
  s.(0) <- s.(0) +. k.width;
  s.(1) <- s.(1) +. k.height;
  s.(2) <- s.(2) +. Mae_tech.Device_kind.area k;
  t.devices <- t.devices + 1;
  count_class t k t.classes

(* Merge adjacent width classes that share a width: distinct kind
   records may still carry equal widths, and the histogram is keyed by
   the width value. *)
let rec merge_equal_widths = function
  | (w1, c1) :: (w2, c2) :: rest when Float.compare w1 w2 = 0 ->
      merge_equal_widths ((w1, c1 + c2) :: rest)
  | p :: rest -> p :: merge_equal_widths rest
  | [] -> []

let finish t ~net_degrees ~net_widths ~port_count =
  let n = t.devices in
  let width_classes =
    List.map (fun ((k : Mae_tech.Device_kind.t), r) -> (k.width, !r)) t.classes
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> merge_equal_widths
  in
  let mean i = if n = 0 then 0. else t.sums.(i) /. Float.of_int n in
  let max_degree = Array.fold_left Stdlib.max 0 net_degrees in
  let counts = Array.make (max_degree + 1) 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) net_degrees;
  let degree_histogram = ref [] in
  for d = max_degree downto 1 do
    if counts.(d) > 0 then
      degree_histogram := (d, counts.(d)) :: !degree_histogram
  done;
  {
    device_count = n;
    net_count = Array.length net_degrees;
    port_count;
    width_classes;
    average_width = mean 0;
    average_height = mean 1;
    total_device_area = t.sums.(2);
    degree_histogram = !degree_histogram;
    max_degree;
    net_degrees;
    net_widths;
  }

let compute (c : Circuit.t) process =
  let kinds = device_kinds c process in
  let t = tally () in
  for i = 0 to Array.length kinds - 1 do
    add t (kind_exn c kinds i)
  done;
  let net_count = Circuit.net_count c in
  let net_degrees = Array.make net_count 0 in
  let net_widths = Array.make net_count 0. in
  for i = 0 to net_count - 1 do
    let members = c.net_devices.(i) in
    net_degrees.(i) <- Array.length members;
    let sum = ref 0. in
    for j = 0 to Array.length members - 1 do
      sum := !sum +. (kind_exn c kinds members.(j)).width
    done;
    net_widths.(i) <- !sum
  done;
  finish t ~net_degrees ~net_widths ~port_count:(Circuit.port_count c)

let ensure ?stats c process =
  match stats with Some s -> s | None -> compute c process

let pp ppf t =
  Format.fprintf ppf
    "@[<v>N=%d H=%d ports=%d W_avg=%.2fL h_avg=%.2fL cell_area=%.0fL^2@ \
     degrees: %a@]"
    t.device_count t.net_count t.port_count t.average_width t.average_height
    t.total_device_area
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (d, y) -> Format.fprintf ppf "D=%d x%d" d y))
    t.degree_histogram

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
}

(* Each distinct kind string goes to [Process.find_device] once per
   call: [names] / [kinds] hold the kinds found so far, at most one
   entry per kind the process defines, matched by physical equality
   first (a circuit's devices share their kind strings) and then by
   [String.equal].  An unknown kind is not kept, so hostile kind strings
   cannot grow the scan.  The result starts as [None]s and is filled in
   place: [Array.map] would start it from a young [Some], and an array
   too large for the minor heap made from a young value forces a minor
   collection. *)
let device_kinds (c : Circuit.t) (process : Mae_tech.Process.t) =
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
  let resolve s =
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
  in
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

(* Merge adjacent width classes that share a width: distinct kind
   records may still carry equal widths, and the histogram is keyed by
   the width value. *)
let rec merge_equal_widths = function
  | (w1, c1) :: (w2, c2) :: rest when Float.compare w1 w2 = 0 ->
      merge_equal_widths ((w1, c1 + c2) :: rest)
  | p :: rest -> p :: merge_equal_widths rest
  | [] -> []

let compute (c : Circuit.t) process =
  (* This runs twice per module (original and transistor-expanded
     circuit) on the driver's hot path.  Devices share a handful of
     kind records, so widths are tallied per kind (physical equality)
     rather than sorting one float per device, and the degree histogram
     is a counting sort over net degrees.  Every float fold stays in
     device order, so the results are bit-for-bit what the
     straightforward sort-and-group produced. *)
  let kinds = device_kinds c process in
  let n = Array.length kinds in
  let total_width = ref 0. in
  let total_height = ref 0. in
  let total_device_area = ref 0. in
  (* distinct kind records in first-seen order; a process defines ~10,
     so a physical-equality scan beats any hashing *)
  let uniq : (Mae_tech.Device_kind.t * int ref) list ref = ref [] in
  for i = 0 to n - 1 do
    let k = kind_exn c kinds i in
    total_width := !total_width +. k.Mae_tech.Device_kind.width;
    total_height := !total_height +. k.Mae_tech.Device_kind.height;
    total_device_area := !total_device_area +. Mae_tech.Device_kind.area k;
    match List.find_opt (fun (k', _) -> k' == k) !uniq with
    | Some (_, r) -> incr r
    | None -> uniq := (k, ref 1) :: !uniq
  done;
  let width_classes =
    List.map
      (fun ((k : Mae_tech.Device_kind.t), r) -> (k.width, !r))
      !uniq
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> merge_equal_widths
  in
  let average_width = if n = 0 then 0. else !total_width /. Float.of_int n in
  let average_height = if n = 0 then 0. else !total_height /. Float.of_int n in
  let net_count = Circuit.net_count c in
  let max_degree = ref 0 in
  let degs = Array.make (Stdlib.max 1 net_count) 0 in
  for i = 0 to net_count - 1 do
    let d = Circuit.degree c i in
    Array.unsafe_set degs i d;
    if d > !max_degree then max_degree := d
  done;
  let counts = Array.make (!max_degree + 1) 0 in
  for i = 0 to net_count - 1 do
    let d = Array.unsafe_get degs i in
    counts.(d) <- counts.(d) + 1
  done;
  let degree_histogram = ref [] in
  for d = !max_degree downto 1 do
    if counts.(d) > 0 then
      degree_histogram := (d, counts.(d)) :: !degree_histogram
  done;
  let degree_histogram = !degree_histogram in
  let max_degree = !max_degree in
  let total_device_area = !total_device_area in
  {
    device_count = n;
    net_count;
    port_count = Circuit.port_count c;
    width_classes;
    average_width;
    average_height;
    total_device_area;
    degree_histogram;
    max_degree;
  }

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

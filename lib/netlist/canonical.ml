(* The canonical, construction-order-independent serialization of a
   circuit, and its digest -- the structural half of the estimate
   store's content address.

   Two circuits describing the same schematic must serialize (and so
   hash) identically however their builders interleaved net creation
   and device insertion.  Index-dependent state (net indices, device
   indices, pin arrays of net numbers) is therefore replaced by an
   order that depends on names alone: nets, devices and ports are each
   listed sorted by name (names are unique within a circuit, so the
   sort is a total order), and a device pin refers to its net by the
   net's rank in the sorted net list.  Pin positions are structural:
   swapping a transistor's gate and drain is a different circuit.

   The stream is binary.  Every string is preceded by its length and
   every list by its count, each as a 4-byte little-endian integer, and
   a rank is a 4-byte integer too.  So a reader can split the stream
   back into its fields, and two different structures cannot render to
   the same bytes whatever bytes their names hold: no name is quoted,
   escaped or scanned. *)

let add_int buf n = Buffer.add_int32_le buf (Int32.of_int n)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

(* The positions of [names] in ascending name order.  Merge sort:
   measured faster here than [Array.sort]'s heapsort. *)
let by_name names =
  let order = Array.init (Array.length names) Fun.id in
  Array.stable_sort
    (fun i j -> String.compare (Array.unsafe_get names i) (Array.unsafe_get names j))
    order;
  order

(* The names of [items], made from [""] and filled in place: an array
   too large for the minor heap that [Array.map] starts from a young
   name (a circuit just parsed) forces a minor collection. *)
let names_of items name =
  let names = Array.make (Array.length items) "" in
  Array.iteri (fun i x -> names.(i) <- name x) items;
  names

let to_string (c : Circuit.t) =
  let net_names = names_of c.nets (fun (n : Net.t) -> n.name) in
  let device_names = names_of c.devices (fun (d : Device.t) -> d.name) in
  let port_names = names_of c.ports (fun (p : Port.t) -> p.name) in
  let buf =
    Buffer.create (64 + (16 * Array.length net_names) + (48 * Array.length device_names))
  in
  Buffer.add_string buf "mae-canonical 2\n";
  add_string buf c.name;
  add_string buf c.technology;
  (* every net is listed, connected or not: a floating net is real
     structure (it contributes to H) and must change the hash *)
  let rank = Array.make (Array.length net_names) 0 in
  add_int buf (Array.length net_names);
  Array.iteri
    (fun r i ->
      rank.(i) <- r;
      add_string buf net_names.(i))
    (by_name net_names);
  add_int buf (Array.length device_names);
  Array.iter
    (fun i ->
      let d : Device.t = c.devices.(i) in
      add_string buf d.name;
      add_string buf d.kind;
      add_int buf (Array.length d.pins);
      Array.iter (fun n -> add_int buf rank.(n)) d.pins)
    (by_name device_names);
  add_int buf (Array.length port_names);
  Array.iter
    (fun i ->
      let p : Port.t = c.ports.(i) in
      add_string buf p.name;
      add_string buf (Port.direction_to_string p.direction);
      add_int buf rank.(p.net))
    (by_name port_names);
  Buffer.contents buf

let digest c = Digest.to_hex (Digest.string (to_string c))

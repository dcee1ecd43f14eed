(* Reference implementations of the estimate store's key, kept as test
   oracles.

   The text form: each name quoted with [%S], devices and nets listed
   by name, pins referring to nets by quoted name, under the
   "mae-canonical 1" and "mae-cas-key 1" headers.  The length-prefixed
   stream of Mae_netlist.Canonical must make two circuits equal exactly
   when this form does, and a key of this form must never be served. *)

open Mae_netlist

let add_quoted buf s = Buffer.add_string buf (Printf.sprintf "%S" s)

let add_line buf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt

let to_string (c : Circuit.t) =
  let buf = Buffer.create 1024 in
  add_line buf "mae-canonical 1";
  add_line buf "circuit %S technology %S" c.name c.technology;
  let net_name i = (c.nets.(i) : Net.t).name in
  let devices =
    Array.to_list c.devices
    |> List.sort (fun (a : Device.t) (b : Device.t) -> String.compare a.name b.name)
  in
  List.iter
    (fun (d : Device.t) ->
      Buffer.add_string buf "device ";
      add_quoted buf d.name;
      Buffer.add_string buf " kind ";
      add_quoted buf d.kind;
      Buffer.add_string buf " pins";
      Array.iter
        (fun n ->
          Buffer.add_char buf ' ';
          add_quoted buf (net_name n))
        d.pins;
      Buffer.add_char buf '\n')
    devices;
  let nets =
    Array.to_list c.nets |> List.map (fun (n : Net.t) -> n.name) |> List.sort String.compare
  in
  List.iter (fun n -> add_line buf "net %S" n) nets;
  let ports =
    Array.to_list c.ports
    |> List.sort (fun (a : Port.t) (b : Port.t) -> String.compare a.name b.name)
  in
  List.iter
    (fun (p : Port.t) ->
      add_line buf "port %S %s %S" p.name (Port.direction_to_string p.direction) (net_name p.net))
    ports;
  Buffer.contents buf

(* The store key over the text form. *)
let cas_key ?(methods = Mae.Methodology.default_names) ~process circuit =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "mae-cas-key 1\n%sprocess %s\nregistry %s\nmethods %s\n"
          (to_string circuit)
          (Mae_tech.Process.fingerprint process)
          (Mae.Methodology.registry_version ())
          (String.concat "," methods)))

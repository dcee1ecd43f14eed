type error = Unknown_cell of { device : string; kind : string }

let pp_error ppf (Unknown_cell { device; kind }) =
  Format.fprintf ppf "device %s: no cell template for kind %s" device kind

exception Unknown of error

(* Every device's cell wiring, in device order; the first device with no
   template is the error. *)
let wirings library (c : Mae_netlist.Circuit.t) =
  match
    Array.map
      (fun (d : Mae_netlist.Device.t) ->
        match Library.find library d.kind with
        | Some cell -> cell.wiring
        | None -> raise (Unknown (Unknown_cell { device = d.name; kind = d.kind })))
      c.devices
  with
  | ws -> Ok ws
  | exception Unknown e -> Error e

(* [prefix ^ "." ^ suffix] in one allocation. *)
let dotted prefix suffix =
  let p = String.length prefix and n = String.length suffix in
  let b = Bytes.create (p + 1 + n) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.unsafe_set b p '.';
  Bytes.blit_string suffix 0 b (p + 1) n;
  Bytes.unsafe_to_string b

let no_device = Mae_netlist.Device.make ~index:0 ~name:"-" ~kind:"-" ~pins:[||]

let no_net = Mae_netlist.Net.make ~index:0 ~name:"-"

(* The schematic nets a built name can equal: a private net's name
   [<device>.<suffix>] has a dot, and a rail is [vdd!] or [gnd!].  As a
   lookup from such a name to the schematic net's index, or [None] when
   the schematic has none (every generated gate-level circuit). *)
let mergeable (c : Mae_netlist.Circuit.t) =
  let may_merge (n : Mae_netlist.Net.t) =
    String.contains n.name '.' || n.name = "vdd!" || n.name = "gnd!"
  in
  if not (Array.exists may_merge c.nets) then None
  else begin
    let table = Mae_netlist.Intern.create 8 in
    let index =
      Array.of_list
        (List.filter_map
           (fun (n : Mae_netlist.Net.t) ->
             if may_merge n then begin
               ignore (Mae_netlist.Intern.intern table n.name);
               Some n.index
             end
             else None)
           (Array.to_list c.nets))
    in
    Some
      (fun name ->
        match Mae_netlist.Intern.find table name with -1 -> -1 | i -> index.(i))
  end

(* How many transistors the expansion has, and a bound on its nets:
   every schematic net, both rails, and each device's private slots
   past the pins it wires. *)
let sizes (c : Mae_netlist.Circuit.t) wirings =
  let tx_total = ref 0 and private_total = ref 0 in
  Array.iteri
    (fun di (w : Cell.wiring) ->
      tx_total := !tx_total + Array.length w.tx_names;
      private_total :=
        !private_total + Cell.slot_count w
        - min w.pin_count (Array.length c.devices.(di).pins))
    wirings;
  (!tx_total, Array.length c.nets + 2 + !private_total)

(* The one terminal walk, shared by [circuit] and [stats].  Expanded
   nets are numbered with a counter, in the order their first terminal
   is wired: a schematic net through [raw], a cell-private net through
   the device's [slots], a rail through [vdd] / [gnd]; then each port
   net no transistor touched.  Built names are distinct by the Cell.make
   rules, so none is looked up, except against [mergeable]'s schematic
   nets: that keeps two names that coincide (a schematic net [g1.n1]
   and device [g1]'s internal [n1]) as one net.

   [transistor d w t drain gate source] is called for each transistor
   in order, with the net of each terminal, or -1 for a rail left out
   (unless [include_supplies], a rail terminal is no pin at all).  Net
   [i]'s name goes to [names.(i)] when [names] is given; a private
   net's name is built only then or when [mergeable] needs it.  Returns
   the net count and each port's net. *)
let walk ~include_supplies ?names (c : Mae_netlist.Circuit.t) wirings
    ~transistor =
  let open Mae_netlist in
  let net_count = ref 0 in
  let fresh name =
    let i = !net_count in
    (match names with Some names -> names.(i) <- name | None -> ());
    net_count := i + 1;
    i
  in
  let raw = Array.make (Array.length c.nets) (-1) in
  let raw_net n =
    if raw.(n) < 0 then raw.(n) <- fresh c.nets.(n).name;
    raw.(n)
  in
  let merge = mergeable c in
  let named = Option.is_some names || Option.is_some merge in
  let built =
    match merge with
    | None -> fresh
    | Some find -> (
        fun name -> match find name with -1 -> fresh name | n -> raw_net n)
  in
  let vdd = ref (-1) and gnd = ref (-1) in
  let rail r name =
    if !r < 0 then r := built name;
    !r
  in
  let slots =
    Array.make
      (Array.fold_left (fun m w -> max m (Cell.slot_count w)) 0 wirings)
      (-1)
  in
  let resolve (d : Device.t) (w : Cell.wiring) code =
    if code = Cell.vdd_terminal then
      if include_supplies then rail vdd "vdd!" else -1
    else if code = Cell.gnd_terminal then
      if include_supplies then rail gnd "gnd!" else -1
    else if code < w.pin_count && code < Array.length d.pins then
      raw_net d.pins.(code)
    else begin
      if slots.(code) < 0 then
        slots.(code) <-
          built
            (if not named then ""
             else if code < w.pin_count then
               (* The schematic gave fewer pins than the cell defines;
                  the missing pin gets a fresh private net so
                  estimation can proceed (as a layout tool would leave
                  it floating). *)
               dotted d.name ("unconnected" ^ string_of_int code)
             else dotted d.name w.internal_nets.(code - w.pin_count));
      slots.(code)
    end
  in
  Array.iteri
    (fun di (d : Device.t) ->
      let w = wirings.(di) in
      Array.fill slots 0 (Cell.slot_count w) (-1);
      for t = 0 to Array.length w.tx_names - 1 do
        let base = 3 * t in
        (* drain, gate, source: the order nets are numbered in *)
        let drain = resolve d w w.terminals.(base) in
        let gate = resolve d w w.terminals.(base + 1) in
        let source = resolve d w w.terminals.(base + 2) in
        transistor di w t drain gate source
      done)
    c.devices;
  let ports = Array.map (fun (p : Port.t) -> raw_net p.net) c.ports in
  (!net_count, ports)

let circuit ?(include_supplies = false) library (c : Mae_netlist.Circuit.t) =
  match wirings library c with
  | Error e -> Error e
  | Ok wirings ->
      let open Mae_netlist in
      let tx_total, net_bound = sizes c wirings in
      let names = Array.make net_bound "" in
      let devices = Array.make tx_total no_device in
      let next = ref 0 in
      let transistor di (w : Cell.wiring) t drain gate source =
        let kept =
          Bool.to_int (drain >= 0) + Bool.to_int (gate >= 0)
          + Bool.to_int (source >= 0)
        in
        let pins = Array.make kept 0 in
        let p = ref 0 in
        let put n =
          if n >= 0 then begin
            pins.(!p) <- n;
            incr p
          end
        in
        put drain;
        put gate;
        put source;
        let index = !next in
        next := index + 1;
        devices.(index) <-
          Device.make ~index
            ~name:(dotted c.devices.(di).name w.tx_names.(t))
            ~kind:w.tx_kinds.(t) ~pins
      in
      let net_count, port_nets =
        walk ~include_supplies ~names c wirings ~transistor
      in
      let ports =
        Array.mapi
          (fun i (p : Port.t) ->
            Port.make ~name:p.name ~direction:p.direction ~net:port_nets.(i))
          c.ports
      in
      (* filled in place, as [devices] is: [Array.init] from a young
         first net forces a minor collection once the array is too
         large for the minor heap *)
      let nets = Array.make net_count no_net in
      for index = 0 to net_count - 1 do
        nets.(index) <- Net.make ~index ~name:names.(index)
      done;
      Ok
        (Circuit.of_distinct_arrays ~name:(c.name ^ "_tx") ~technology:c.technology
           ~devices ~nets ~ports)

(* [circuit]'s statistics without [circuit]: the same walk, with each
   transistor's kind resolved (once per distinct kind string) and folded
   into the statistics in transistor order, and each net's members
   counted and their widths summed as they are first wired.  [last.(n)]
   is the last transistor on net [n]: transistors come in index order,
   so each net counts its distinct members in ascending order, as
   [Circuit.devices_on_net] lists them. *)
let stats library (c : Mae_netlist.Circuit.t) process =
  match wirings library c with
  | Error e -> Error e
  | Ok wirings ->
      let open Mae_netlist in
      let _, net_bound = sizes c wirings in
      let degrees = Array.make net_bound 0 in
      let widths = Array.make net_bound 0. in
      let last = Array.make net_bound (-1) in
      let resolve = Stats.resolver process in
      let tally = Stats.tally () in
      let next = ref 0 in
      let touch tx (k : Mae_tech.Device_kind.t) n =
        if n >= 0 && last.(n) <> tx then begin
          last.(n) <- tx;
          degrees.(n) <- degrees.(n) + 1;
          widths.(n) <- widths.(n) +. k.width
        end
      in
      let transistor _ (w : Cell.wiring) t drain gate source =
        let kind = w.tx_kinds.(t) in
        let k =
          match resolve kind with
          | Some k -> k
          | None -> raise (Stats.Unknown_kind kind)
        in
        Stats.add tally k;
        let tx = !next in
        next := tx + 1;
        touch tx k drain;
        touch tx k gate;
        touch tx k source
      in
      let net_count, _ =
        walk ~include_supplies:false c wirings ~transistor
      in
      Ok
        (Stats.finish tally
           ~net_degrees:(Array.sub degrees 0 net_count)
           ~net_widths:(Array.sub widths 0 net_count)
           ~port_count:(Array.length c.ports))

let transistor_count library (c : Mae_netlist.Circuit.t) =
  let rec go acc i =
    if i >= Array.length c.devices then Ok acc
    else begin
      let d = c.devices.(i) in
      match Library.find library d.kind with
      | None -> Error (Unknown_cell { device = d.name; kind = d.kind })
      | Some cell -> go (acc + Cell.transistor_count cell) (i + 1)
    end
  in
  go 0 0

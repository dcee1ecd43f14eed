(** Parsed modules of the structural HDL, in id form.

    A design file contains one or more module declarations:

    {v
    module full_adder {
      technology nmos25;
      port a in;  port b in;  port cin in;
      port s out; port cout out;
      device x1 xor2 (a, b, t1);
      device x2 xor2 (t1, cin, s);
      net t1;                       // optional explicit declaration
    }
    v}

    Each identifier of a module is interned once, by the {!Lexer}, and
    known after that by its id: [idents.(id)] is its text, no two ids
    share a text, and ids are dense from 0 in order of first sight
    within the module.  The module's items are one int stream, item
    after item in source order:

    - [tag_technology; t]: [technology t;]
    - [tag_port; p; d]: [port p d;], [d] a {!direction_code}
    - [tag_net; n]: [net n;]
    - [tag_device; d; k; c; p{_ 1}; ...; p{_ c}]: [device d k (p{_ 1}, ..., p{_ c});],
      [c >= 1] *)

type module_decl = {
  name : string;
  idents : string array;  (** id -> identifier *)
  items : int array;  (** the item stream *)
}

type design = module_decl list

val tag_technology : int

val tag_port : int

val tag_net : int

val tag_device : int

val direction_code : Mae_netlist.Port.direction -> int

val direction_of_code : int -> Mae_netlist.Port.direction

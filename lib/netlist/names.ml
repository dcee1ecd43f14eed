include Hashtbl.Make (String)

let fresh seen name =
  let before = length seen in
  replace seen name ();
  length seen > before

let temp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let close_then f oc =
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      f oc;
      close_out oc)

(* A device, FIFO or socket at [path] (/dev/stdout, a pipe from process
   substitution) is written through: a rename would replace it. *)
let write_through ~path f =
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc -> (
      match close_then f oc with
      | () -> Ok ()
      | exception Sys_error msg -> Error msg)

let write_replacing ~path f =
  let tmp = temp_path path in
  match open_out_bin tmp with
  | exception Sys_error msg -> Error msg
  | oc -> (
      let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
      match
        close_then f oc;
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception Sys_error msg ->
          remove_tmp ();
          Error msg
      | exception e ->
          remove_tmp ();
          raise e)

let write_with ~path f =
  match Unix.stat path with
  | { Unix.st_kind = S_REG; _ } ->
      (* replace the file a symbolic link points at, not the link *)
      let target = try Unix.realpath path with Unix.Unix_error _ -> path in
      write_replacing ~path:target f
  | { Unix.st_kind = S_CHR | S_BLK | S_FIFO | S_SOCK; _ } ->
      write_through ~path f
  | _ | (exception Unix.Unix_error _) -> write_replacing ~path f

let write ~path contents =
  write_with ~path (fun oc -> output_string oc contents)

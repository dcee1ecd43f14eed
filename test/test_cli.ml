(* The mae CLI as a user runs it: every `mae generate` kind at its
   default size and at size 0 either prints HDL that parses (exit 0) or
   prints one "mae: ..." line and exits 1 -- never an uncaught exception
   (cmdliner's exit 125). *)

let mae =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/mae_cli.exe"

let kinds = [ "counter"; "alu"; "adder"; "decoder"; "parity"; "shift"; "random" ]

let run args =
  let out = Filename.temp_file "mae_cli" ".out"
  and err = Filename.temp_file "mae_cli" ".err" in
  let code = Sys.command (Filename.quote_command mae ~stdout:out ~stderr:err args) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let result = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  result

let check_generate kind size () =
  let args = [ "generate"; kind ] @ Option.fold ~none:[] ~some:(fun s -> [ "--size"; s ]) size in
  match run args with
  | 0, out, _ -> (
      match Mae_hdl.Parser.parse_string out with
      | Ok [ _ ] -> ()
      | Ok _ -> Alcotest.failf "%s: expected one module" kind
      | Error e -> Alcotest.failf "%s: output does not parse: %s" kind e.message)
  | 1, _, err ->
      let lines = String.split_on_char '\n' (String.trim err) in
      if List.length lines <> 1 || not (String.starts_with ~prefix:"mae: " err) then
        Alcotest.failf "%s: expected one \"mae: ...\" line, got %S" kind err
  | code, _, err -> Alcotest.failf "%s: exit %d: %s" kind code err

(* A 64-bit counter has a net of degree 64 (its clock) and a gate
   array of 72 rows: a row-span kernel key far past where the
   inclusion-exclusion sums cancelled into a negative weight. *)
let check_wide_counter_estimates () =
  let hdl = Filename.temp_file "mae_cli" ".hdl" in
  Fun.protect ~finally:(fun () -> Sys.remove hdl) @@ fun () ->
  (match run [ "generate"; "counter"; "--size"; "64" ] with
  | 0, out, _ -> Out_channel.with_open_bin hdl (fun oc -> output_string oc out)
  | code, _, err -> Alcotest.failf "generate: exit %d: %s" code err);
  match run [ "estimate"; hdl ] with
  | 0, out, _ ->
      let gate_array =
        List.filter
          (fun l -> String.starts_with ~prefix:"gate-array:" (String.trim l))
          (String.split_on_char '\n' out)
      in
      Alcotest.(check int) "one gate-array estimate" 1 (List.length gate_array)
  | code, out, err -> Alcotest.failf "estimate: exit %d: %s%s" code out err

(* --verbose prints each ledger after the estimates; the gate-array
   ledger's width and height are the gate-array line's. *)
let check_verbose_ledgers () =
  let hdl = Filename.temp_file "mae_cli" ".hdl" in
  Fun.protect ~finally:(fun () -> Sys.remove hdl) @@ fun () ->
  (match run [ "generate"; "counter"; "--size"; "8" ] with
  | 0, out, _ -> Out_channel.with_open_bin hdl (fun oc -> output_string oc out)
  | code, _, err -> Alcotest.failf "generate: exit %d: %s" code err);
  match run [ "estimate"; "--verbose"; hdl ] with
  | 0, out, _ ->
      let find prefix lines =
        match List.find_opt (String.starts_with ~prefix) lines with
        | Some l -> l
        | None -> Alcotest.failf "no line starting %S in:\n%s" prefix out
      in
      let rec from prefix = function
        | l :: rest when String.starts_with ~prefix l -> l :: rest
        | _ :: rest -> from prefix rest
        | [] -> Alcotest.failf "no line starting %S in:\n%s" prefix out
      in
      let lines = List.map String.trim (String.split_on_char '\n' out) in
      let ledger =
        from "gate-array breakdown at"
          (from "full-custom breakdown:" (from "standard-cell breakdown at" lines))
      in
      let width, height =
        Scanf.sscanf
          (List.nth (String.split_on_char ',' (find "gate-array:" lines)) 1)
          " %f x %f L" (fun w h -> (w, h))
      in
      (* "width  = ... = <w>L" *)
      let total l =
        Scanf.sscanf (List.hd (List.rev (String.split_on_char '=' l))) " %fL" Fun.id
      in
      Alcotest.(check (float 0.)) "ledger width" width (total (find "width  =" ledger));
      Alcotest.(check (float 0.)) "ledger height" height (total (find "height =" ledger))
  | code, out, err -> Alcotest.failf "estimate: exit %d: %s%s" code out err

let () =
  Alcotest.run "cli"
    [
      ( "generate",
        List.concat_map
          (fun kind ->
            [
              Alcotest.test_case (kind ^ " default size") `Quick
                (check_generate kind None);
              Alcotest.test_case (kind ^ " size 0") `Quick
                (check_generate kind (Some "0"));
            ])
          kinds );
      ( "estimate",
        [
          Alcotest.test_case "counter size 64 gate array estimates" `Quick
            check_wide_counter_estimates;
          Alcotest.test_case "verbose prints the gate-array ledger" `Quick
            check_verbose_ledgers;
        ] );
    ]

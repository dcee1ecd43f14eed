(* CHAMP's model is fitted on first use, and engine workers may all
   reach that first use at once.  Each race runs in a fresh process (so
   nothing has fitted the model yet): four domains, released together,
   run the champ methodology, and every one must get the same estimate,
   none an escaping exception.  A [lazy] fit forced from a second domain
   while the first was fitting raised [CamlinternalLazy.Undefined].  The
   fit takes a fraction of a millisecond, so whether two domains overlap
   depends on the scheduler; the test runs [races] fresh processes. *)

let domains = 4
let races = 24

(* One race in this process: the errors, one per failing domain. *)
let race () =
  Mae_baselines.Methods.ensure_registered ();
  let process = Mae_tech.Builtin.nmos25 in
  let circuit = Mae_workload.Generators.counter 4 in
  let ctx =
    match Mae.Methodology.make_ctx ~process circuit with
    | Ok ctx -> ctx
    | Error e -> failwith (Mae.Methodology.error_to_string e)
  in
  let champ = Option.get (Mae.Methodology.find "champ") in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let run () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    match Mae.Methodology.run ctx champ circuit with
    | Ok o -> Ok (Int64.bits_of_float (Mae.Methodology.dims o).area)
    | Error e -> Error (Mae.Methodology.error_to_string e)
    | exception e -> Error (Printexc.to_string e)
  in
  let workers = List.init domains (fun _ -> Domain.spawn run) in
  (* the main domain sleeps rather than spins, so the spinning workers
     hold the CPUs when they are released together *)
  while Atomic.get ready < domains do
    Unix.sleepf 0.001
  done;
  Atomic.set go true;
  let results = List.map Domain.join workers in
  List.concat
    (List.mapi
       (fun i r ->
         match (r, List.hd results) with
         | Error e, _ -> [ Printf.sprintf "domain %d: %s" i e ]
         | Ok a, Ok b when a <> b -> [ Printf.sprintf "domain %d: another estimate" i ]
         | Ok _, _ -> [])
       results)

let test_first_use_from_domains () =
  let failed = ref 0 in
  for _ = 1 to races do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--race" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  Alcotest.(check int) "races with a failing domain" 0 !failed

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--race" then begin
    match race () with
    | [] -> exit 0
    | errors ->
        List.iter prerr_endline errors;
        exit 1
  end
  else
    Alcotest.run "champ_race"
      [
        ( "champ",
          [
            Alcotest.test_case "first use from four domains at once" `Quick
              test_first_use_from_domains;
          ] );
      ]

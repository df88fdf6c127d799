(* Fault-injection soak runner (see lib/harness/soak.mli).

   Duration defaults to ZMSQ_SOAK_SECS (seconds) so CI can scale the run
   without changing the invocation; exits nonzero on any watchdog
   violation, printing the seed needed to replay. *)

let usage () =
  prerr_endline
    "usage: zmsq_soak [--secs S] [--seed N] [--producers N] [--consumers N]\n\
    \                 [--buffer N] [--batch N] [--shards N]\n\
    \                 [--stale-ms MS] [--artifacts DIR] [--phases CSV]\n\
    \                 [--no-faults] [--quiet]\n\
     Fault-injected soak of the blocking/buffering queue; ZMSQ_SOAK_SECS\n\
     overrides the default duration. --phases takes a comma-separated\n\
     subset of: mixed,burst,producer-dies,consumer-starves,handle-churn,\n\
     shard-churn,server-overload. --shards sets the shard count of the\n\
     shard-churn phase.";
  exit 2

let () =
  let open Zmsq_harness.Soak in
  let env_secs =
    match Sys.getenv_opt "ZMSQ_SOAK_SECS" with
    | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> 8.)
    | None -> 8.
  in
  let cfg = ref { default_config with secs = env_secs; log = Some prerr_endline } in
  let rec parse = function
    | [] -> ()
    | "--secs" :: v :: rest ->
        cfg := { !cfg with secs = float_of_string v };
        parse rest
    | "--seed" :: v :: rest ->
        cfg := { !cfg with seed = int_of_string v };
        parse rest
    | "--producers" :: v :: rest ->
        cfg := { !cfg with producers = int_of_string v };
        parse rest
    | "--consumers" :: v :: rest ->
        cfg := { !cfg with consumers = int_of_string v };
        parse rest
    | "--buffer" :: v :: rest ->
        cfg := { !cfg with buffer_len = int_of_string v };
        parse rest
    | "--batch" :: v :: rest ->
        cfg := { !cfg with batch = int_of_string v };
        parse rest
    | "--shards" :: v :: rest ->
        cfg := { !cfg with shards = int_of_string v };
        parse rest
    | "--stale-ms" :: v :: rest ->
        cfg := { !cfg with stale_ms = float_of_string v };
        parse rest
    | "--artifacts" :: v :: rest ->
        cfg := { !cfg with artifacts_dir = Some v };
        parse rest
    | "--phases" :: v :: rest ->
        let phases =
          List.map
            (fun name ->
              match phase_of_name (String.trim name) with
              | Some p -> p
              | None ->
                  Printf.eprintf "zmsq_soak: unknown phase %S\n%!" name;
                  usage ())
            (String.split_on_char ',' v)
        in
        cfg := { !cfg with phases };
        parse rest
    | "--no-faults" :: rest ->
        cfg := { !cfg with faults = no_faults };
        parse rest
    | "--quiet" :: rest ->
        cfg := { !cfg with log = None };
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with _ -> usage ());
  let cfg = !cfg in
  Printf.printf "zmsq_soak: seed=%d secs=%.1f producers=%d consumers=%d buffer=%d\n%!"
    cfg.seed cfg.secs cfg.producers cfg.consumers cfg.buffer_len;
  let r = run cfg in
  List.iter print_endline (report_lines r);
  (match r.artifacts with
  | [] -> ()
  | files ->
      print_endline "artifacts:";
      List.iter (fun f -> print_endline ("  " ^ f)) files);
  if r.violations <> [] then begin
    List.iter (fun v -> prerr_endline ("VIOLATION " ^ v)) r.violations;
    Printf.eprintf "replay with: zmsq_soak --seed %d --secs %.1f\n%!" cfg.seed cfg.secs;
    exit 1
  end

(* Per-PR perf-regression gate (see lib/harness/perfci.mli).

   Runs the fixed-shape suite, writes the schema-versioned report to
   perfci-report.json (untracked; --out names another file, as CI does
   with BENCH_pr6.json), compares against the committed
   results/perf-baseline.json, and exits 1 when any experiment regresses past its threshold (or exceeds
   its absolute limit, e.g. the <= 5% full-observability overhead cap).
   --bless rewrites the baseline instead of comparing, from the median of
   [bless_runs] runs: one run lands anywhere in a +-20-30% spread on a
   small shared machine, and a baseline at the top of it fails later runs
   that are not slower. *)

module Perfci = Zmsq_harness.Perfci
module Json = Zmsq_obs.Json

let usage () =
  prerr_endline
    "usage: zmsq_perfci [--out FILE] [--id ID] [--baseline FILE] [--scale F] [--only ID[,ID...]]\n\
    \                   [--bless] [--no-compare] [--list]\n\
     Fixed-shape perf runs gated against results/perf-baseline.json.\n\
     --scale multiplies op counts (default $ZMSQ_PERFCI_SCALE or 1.0);\n\
     --bless runs the suite 5 times and rewrites the baseline from each\n\
     experiment's median run (with --only, only those entries; the others\n\
     stay as they were);\n\
     --only restricts to a comma-separated subset of experiment ids.";
  exit 2

let bless_runs = 5

let () =
  let out = ref "perfci-report.json" in
  let id = ref "pr6" in
  let baseline = ref "results/perf-baseline.json" in
  let scale =
    ref
      (match Sys.getenv_opt "ZMSQ_PERFCI_SCALE" with
      | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
      | None -> 1.0)
  in
  let only = ref None in
  let bless = ref false in
  let compare = ref true in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--id" :: v :: rest ->
        id := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := v;
        parse rest
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> scale := f
        | _ ->
            Printf.eprintf "zmsq_perfci: bad --scale %S\n%!" v;
            usage ());
        parse rest
    | "--only" :: v :: rest ->
        let ids = List.map String.trim (String.split_on_char ',' v) in
        let known = Perfci.experiment_ids () in
        List.iter
          (fun id ->
            if not (List.mem id known) then begin
              Printf.eprintf "zmsq_perfci: unknown experiment %S (see --list)\n%!" id;
              usage ()
            end)
          ids;
        only := Some ids;
        parse rest
    | "--bless" :: rest ->
        bless := true;
        parse rest
    | "--no-compare" :: rest ->
        compare := false;
        parse rest
    | "--list" :: _ ->
        List.iter print_endline (Perfci.experiment_ids ());
        exit 0
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ ->
        Printf.eprintf "zmsq_perfci: unknown argument %S\n%!" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let filter = match !only with None -> fun _ -> true | Some ids -> fun id -> List.mem id ids in
  Printf.printf "zmsq_perfci: scale=%g baseline=%s\n%!" !scale !baseline;
  let print_results =
    List.iter (fun r ->
        Printf.printf "  %-24s %12.4f %-7s (%.1fs)\n%!" r.Perfci.id r.Perfci.value r.Perfci.unit_
          r.Perfci.wall_seconds)
  in
  let n_runs = if !bless then bless_runs else 1 in
  let runs =
    List.init n_runs (fun i ->
        if n_runs > 1 then Printf.printf "zmsq_perfci: run %d of %d\n%!" (i + 1) n_runs;
        let results = Perfci.run_all ~only:filter ~scale:!scale () in
        print_results results;
        results)
  in
  let results = Perfci.median_results runs in
  if n_runs > 1 then begin
    Printf.printf "zmsq_perfci: median of %d runs\n%!" n_runs;
    print_results results
  end;
  if !bless then begin
    let keep =
      match !only with
      | None -> []
      | Some _ -> (
          match Perfci.load_baseline !baseline with
          | Ok base -> base
          | Error msg ->
              Printf.eprintf "zmsq_perfci: %s (--bless --only needs the entries it keeps)\n%!" msg;
              exit 2)
    in
    let path =
      Zmsq_obs.Export.write_file ~path:!baseline (Json.to_string (Perfci.baseline_json ~keep results))
    in
    Printf.printf "zmsq_perfci: blessed baseline -> %s\n%!" path
  end;
  let comparisons =
    if (not !compare) || !bless then None
    else begin
      match Perfci.load_baseline !baseline with
      | Error msg ->
          Printf.eprintf "zmsq_perfci: %s (run with --bless to create it)\n%!" msg;
          exit 2
      | Ok base -> Some (Perfci.compare_all base results)
    end
  in
  let report =
    Perfci.report_json ~id:!id ~scale:!scale ~baseline_file:!baseline ~results ~comparisons ()
  in
  let path = Zmsq_obs.Export.write_file ~path:!out (Json.to_string report) in
  Printf.printf "zmsq_perfci: report -> %s\n%!" path;
  match comparisons with
  | None -> ()
  | Some cs ->
      let fmt_delta c =
        match c.Perfci.cmp_delta_pct with
        | None -> "(no baseline)"
        | Some d -> Printf.sprintf "%+.1f%% vs baseline (threshold %.0f%%)" d c.Perfci.cmp_threshold_pct
      in
      List.iter
        (fun c ->
          Printf.printf "  %-24s %s %s\n%!" c.Perfci.cmp_id
            (if c.Perfci.cmp_ok then "ok  " else "FAIL")
            (fmt_delta c))
        cs;
      let regressions = List.filter (fun c -> not c.Perfci.cmp_ok) cs in
      if regressions <> [] then begin
        Printf.eprintf "zmsq_perfci: %d experiment(s) regressed past threshold\n%!"
          (List.length regressions);
        exit 1
      end

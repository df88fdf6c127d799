(* Static-analysis driver: walks [.ml] files under the given roots
   (default [lib/], which covers every library including obs, harness and
   dist) and runs the {!Zmsq_analysis} passes — the lock-discipline lint
   (R1/R2/R5), the raw-primitive rule (R3), the atomics padding audit
   (R4), the prim-functorization coverage gate (R6) and the unbounded
   spin rule (R7).

   Exit status is a bitmask so CI logs show which rule class regressed at
   a glance:

     1  lock-discipline finding (raise-under-lock / guarded-by /
        blocking-under-lock)
     2  raw-primitive finding
     4  padding-audit finding (unannotated Atomic.t field)
     8  prim-coverage regression below the blessed floor
     16 unbounded-spin finding (a cpu_relax loop with no bound or
        escalation)
     64 usage error

   Flags: [--json] writes the machine-readable inventory to
   [results/atomics-audit.json] (preserving the blessed coverage floor);
   [--bless] additionally raises/lowers the floor to the current value —
   the re-bless workflow after an intentional change (see ANALYSIS.md). *)

module A = Zmsq_analysis

let audit_path = "results/atomics-audit.json"

let () =
  let json = ref false in
  let bless = ref false in
  let roots = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--json" -> json := true
        | "--bless" -> bless := true
        | _ when String.length arg > 0 && arg.[0] = '-' ->
            Printf.eprintf "zmsq_analyze: unknown flag %s\nusage: zmsq_analyze [--json] [--bless] [roots...]\n" arg;
            exit 64
        | root ->
            if not (Sys.file_exists root) then begin
              Printf.eprintf "zmsq_analyze: no such path: %s\n" root;
              exit 64
            end;
            roots := root :: !roots)
    Sys.argv;
  let roots = match List.rev !roots with [] -> [ "lib" ] | r -> r in
  let files = A.Source.ml_files roots in

  let lint_findings = List.concat_map A.Lint.lint_file files in
  let audit_entries = List.concat_map A.Audit.audit_file files in
  let audit_findings = A.Audit.findings audit_entries in
  let coverage = A.Coverage.scan_files files in
  let blessed =
    match A.Coverage.read_blessed audit_path with
    | Some b when not !bless -> b
    | _ -> coverage.A.Coverage.pct
  in
  let coverage_findings = A.Coverage.gate ~blessed coverage in

  let findings = lint_findings @ audit_findings @ coverage_findings in
  List.iter (fun f -> print_endline (A.Source.pp_finding f)) findings;

  let count rules =
    List.length (List.filter (fun f -> List.mem f.A.Source.rule rules) findings)
  in
  let lock = count [ "raise-under-lock"; "guarded-by"; "blocking-under-lock" ] in
  let raw = count [ "raw-primitive" ] in
  let pad = count [ "unpadded-atomic" ] in
  let cov = count [ "prim-coverage" ] in
  let spin = count [ "unbounded-spin" ] in
  Printf.printf "zmsq_analyze: %d file(s) under %s\n" (List.length files)
    (String.concat " " roots);
  Printf.printf "  rule class             findings  exit bit\n";
  Printf.printf "  lock-discipline  R1/2/5 %7d  1\n" lock;
  Printf.printf "  raw-primitive    R3     %7d  2\n" raw;
  Printf.printf "  padding-audit    R4     %7d  4\n" pad;
  Printf.printf "  prim-coverage    R6     %7d  8   (%.2f%% of %d sites, floor %.2f%%)\n" cov
    coverage.A.Coverage.pct coverage.A.Coverage.total blessed;
  Printf.printf "  unbounded-spin   R7     %7d  16\n" spin;

  if !json || !bless then begin
    A.Audit.write_json ~path:audit_path ~entries:audit_entries ~coverage ~blessed_pct:blessed;
    Printf.printf "  wrote %s (%d atomics)\n" audit_path (List.length audit_entries)
  end;

  let bit n c = if c > 0 then n else 0 in
  exit (bit 1 lock lor bit 2 raw lor bit 4 pad lor bit 8 cov lor bit 16 spin)

(* Unit tests for the static analyzer: each rule must flag exactly the
   bad idiom on a small snippet and stay silent on the good twin — the
   zero-findings CI gate only means something if the rules are known to
   fire. Includes regressions for the scope-attribution fix (match arms
   dedenting below their binding) and for comment/string masking. *)

module Lint = Zmsq_analysis.Lint
module Audit = Zmsq_analysis.Audit
module Coverage = Zmsq_analysis.Coverage

let check = Alcotest.check
let findings_of src = Lint.lint_source ~file:"snippet.ml" src
let rules fs = List.map (fun f -> f.Lint.rule) fs

(* {2 R1: raise-under-lock} *)

let test_raise_under_lock_bad () =
  let src = {|let f mu =
  Mutex.lock mu;
  update ();
  Mutex.unlock mu
|} in
  check Alcotest.(list string) "R1 flags bare lock" [ "raise-under-lock" ] (rules (findings_of src))

let test_raise_under_lock_good () =
  let src = {|let f mu =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) update
|} in
  check Alcotest.(list string) "R1 accepts Fun.protect" [] (rules (findings_of src))

let test_raise_under_lock_alias () =
  (* value bindings are aliases, not critical-section entries *)
  let src = {|let acquire = P.Mutex.lock
|} in
  check Alcotest.(list string) "R1 skips aliases" [] (rules (findings_of src))

let test_suppression () =
  let src = {|let f mu =
  Mutex.lock mu; (* lint: allow raise-under-lock *)
  update ();
  Mutex.unlock mu
|} in
  check Alcotest.(list string) "allow suppresses" [] (rules (findings_of src))

(* {2 R2: guarded-by} *)

let test_guarded_by_bad () =
  let src = {|type t = {
  mu : Mutex.t;
  mutable count : int; (* lint: guarded-by mu *)
}

let bump t = t.count <- t.count + 1
|} in
  check Alcotest.(list string) "R2 flags unguarded access" [ "guarded-by" ]
    (rules (findings_of src))

let test_guarded_by_good () =
  let src = {|type t = {
  mu : Mutex.t;
  mutable count : int; (* lint: guarded-by mu *)
}

let bump t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () -> t.count <- t.count + 1)

(* lint: holds mu *)
let peek t = t.count
|} in
  check Alcotest.(list string) "R2 accepts lock evidence" [] (rules (findings_of src))

let test_guarded_by_string_literal () =
  (* a string literal mentioning [receiver.field] is data, not an access —
     the tracked-cell naming convention ("zmsq.handles") must not trip R2 *)
  let src = {|type t = {
  mu : Mutex.t;
  mutable handles : int list; (* lint: guarded-by mu *)
}

let create () = { mu = Mutex.create (); handles = []; tag = "zmsq.handles" }
|} in
  check Alcotest.(list string) "R2 ignores string literals" [] (rules (findings_of src))

(* Scope-attribution regression: a [match] arm whose body dedents below
   the enclosing [let] must not start a fresh scope — before the fix, the
   guarded access below was attributed to a scope with no lock evidence
   and flagged. *)
let test_scopes_match_arm_dedent () =
  let src = {|type t = {
  mu : Mutex.t;
  mutable count : int; (* lint: guarded-by mu *)
}

let bump t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  match t.state with
  | Open ->
let c = t.count + 1 in
      t.count <- c
  | Closed -> ()
|} in
  check Alcotest.(list string) "dedented arm stays in its scope" [] (rules (findings_of src))

let test_scopes_expr_let () =
  (* a one-line [let ... in ...] is an expression, not a definition *)
  let src = {|type t = {
  mu : Mutex.t;
  mutable count : int; (* lint: guarded-by mu *)
}

let bump t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
let c = t.count + 1 in
  t.count <- c
|} in
  check Alcotest.(list string) "expression let stays in its scope" [] (rules (findings_of src))

(* {2 R3: raw primitives} *)

let test_raw_prims () =
  let marked = {|(* lint: prim-functorized *)
let x = Stdlib.Atomic.make 0
|} in
  check Alcotest.(list string) "R3 flags raw atomic in marked file" [ "raw-primitive" ]
    (rules (findings_of marked));
  let unmarked = {|let x = Stdlib.Atomic.make 0
|} in
  check Alcotest.(list string) "R3 ignores unmarked files" [] (rules (findings_of unmarked));
  (* prose mentioning the marker mid-line must not opt the file in *)
  let prose = {|(* files marked (* lint: prim-functorized *) are checked *)
let x = Stdlib.Atomic.make 0
|} in
  check Alcotest.(list string) "R3 needs exact marker line" [] (rules (findings_of prose))

(* {2 R5: blocking-under-lock} *)

let test_blocking_under_lock_bad () =
  let src = {|let f t =
  Mutex.lock t.mu; (* lint: allow raise-under-lock *)
  Eventcount.wait t.ec ticket;
  Mutex.unlock t.mu
|} in
  check Alcotest.(list string) "R5 flags wait under lock" [ "blocking-under-lock" ]
    (rules (findings_of src))

let test_blocking_after_unlock () =
  let src = {|let f t =
  Mutex.lock t.mu; (* lint: allow raise-under-lock *)
  update t;
  Mutex.unlock t.mu;
  Eventcount.wait t.ec ticket
|} in
  check Alcotest.(list string) "R5 accepts blocking after release" []
    (rules (findings_of src))

let test_blocking_protect_body () =
  (* the unlock inside [~finally] does not end the critical section: the
     protected body still runs under the lock *)
  let src = {|let f t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      Unix.sleepf 0.1)
|} in
  check Alcotest.(list string) "R5 scans Fun.protect bodies" [ "blocking-under-lock" ]
    (rules (findings_of src))

let test_blocking_sibling_scope () =
  (* leaving the lock-taking block (dedent below the lock statement) ends
     the held region: the next nested function may block freely *)
  let src = {|let f t =
  let locked () =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () -> update t)
  in
  let park () =
    Unix.sleepf 0.001
  in
  locked ();
  park ()
|} in
  check Alcotest.(list string) "R5 resets on dedent" [] (rules (findings_of src))

let test_blocking_suppression () =
  let src = {|let f t =
  Mutex.lock t.mu; (* lint: allow raise-under-lock *)
  Unix.sleepf 0.1; (* lint: allow blocking-under-lock *)
  Mutex.unlock t.mu
|} in
  check Alcotest.(list string) "R5 allow suppresses" [] (rules (findings_of src))

(* {2 R4: atomics padding audit} *)

let audit_rules src = List.map (fun f -> f.Lint.rule) (Audit.findings (Audit.audit_source ~file:"snippet.ml" src))

let test_audit_unannotated () =
  let src = {|type t = {
  mu : Mutex.t;
  hits : int Atomic.t;
}
|} in
  check Alcotest.(list string) "R4 flags bare Atomic.t field" [ "unpadded-atomic" ]
    (audit_rules src)

let test_audit_annotated () =
  let src = {|type t = {
  hits : int Atomic.t; (* lint: unpadded cold counter *)
  slot : int Atomic.t; (* lint: padded *)
}
|} in
  check Alcotest.(list string) "R4 accepts annotated fields" [] (audit_rules src);
  let entries = Audit.audit_source ~file:"snippet.ml" src in
  check Alcotest.int "both fields inventoried" 2 (List.length entries);
  (match entries with
  | [ a; b ] ->
      check Alcotest.bool "reason recorded" true (a.Audit.e_status = Audit.Unpadded "cold counter");
      check Alcotest.bool "padded recorded" true (b.Audit.e_status = Audit.Padded)
  | _ -> Alcotest.fail "expected two entries")

let test_audit_inline_record () =
  (* single-line records and annotation-on-the-line-above *)
  let src = {|(* lint: unpadded startup-only pair *)
type t = { parties : int; arrived : int Atomic.t; sense : bool Atomic.t }
|} in
  check Alcotest.(list string) "R4 covers inline records via line above" [] (audit_rules src);
  check Alcotest.int "both inline fields inventoried" 2
    (List.length (Audit.audit_source ~file:"snippet.ml" src))

let test_audit_not_a_field () =
  (* aliases and prose are not record fields *)
  let src = {|(* the boxed [int Atomic.t] blocks are allocated back-to-back *)
type 'a t = 'a Atomic.t

let x : int Atomic.t = Atomic.make 0
|} in
  check Alcotest.(list string) "R4 ignores aliases and comments" [] (audit_rules src)

(* {2 R6: prim coverage} *)

let test_coverage_pct () =
  let covered = {|(* lint: prim-functorized *)
let f (a : int P.Atomic.t) = P.Atomic.get a
|} in
  let uncovered = {|let g a = Atomic.get a + Atomic.get a
|} in
  let stats =
    Coverage.of_stats
      [ Coverage.scan_source ~file:"a.ml" covered; Coverage.scan_source ~file:"b.ml" uncovered ]
  in
  check Alcotest.int "total sync sites" 4 stats.Coverage.total;
  check Alcotest.int "covered sync sites" 2 stats.Coverage.covered;
  check (Alcotest.float 0.01) "pct" 50.0 stats.Coverage.pct;
  check Alcotest.int "no regression at floor" 0
    (List.length (Coverage.gate ~blessed:50.0 stats));
  check Alcotest.int "regression below floor" 1
    (List.length (Coverage.gate ~blessed:60.0 stats))

(* {2 R7: unbounded-spin} *)

let test_unbounded_spin_bad () =
  let src = {|let acquire t =
  while Atomic.exchange t true do
    P.cpu_relax ()
  done

let rec wait_ready q =
  if not (Atomic.get q.ready) then begin
    Domain.cpu_relax ();
    wait_ready q
  end

let poll q =
  let misses = ref 0 in
  let rec go () =
    if Atomic.get q.n = 0 then begin
      incr misses;
      misses := !misses + 1;
      P.cpu_relax ();
      go ()
    end
  in
  go ()
|} in
  check Alcotest.(list string) "R7 flags while, rec and uncompared-counter spins"
    [ "unbounded-spin"; "unbounded-spin"; "unbounded-spin" ]
    (rules (findings_of src))

let test_unbounded_spin_good () =
  let src = {|let cpu_relax () =
  tick ();
  P.cpu_relax ()

let spin_then_sleep t =
  let spun = ref 0 in
  while (not (ready t)) && !spun < t.spin do
    P.cpu_relax ();
    incr spun
  done;
  sleep_until_ready t

let stall n =
  for _ = 1 to n do
    P.cpu_relax ()
  done

let rec retry n =
  if n > 0 && not (Atomic.get flag) then begin
    P.cpu_relax ();
    retry (n - 1)
  end

let acquire_backoff t b =
  while Atomic.exchange t true do
    P.cpu_relax ();
    Backoff.once b
  done

let wait_sleeping t =
  while not (Atomic.get t) do
    Domain.cpu_relax ();
    Unix.sleepf 1e-4
  done

let deliberate t =
  while not (Atomic.get t) do
    Domain.cpu_relax () (* lint: allow unbounded-spin one waiter per core *)
  done
|} in
  check Alcotest.(list string) "R7 accepts counted, escalating and annotated spins" []
    (rules (findings_of src))

let test_unbounded_spin_needs_reason () =
  let src = {|let deliberate t =
  while not (Atomic.get t) do
    Domain.cpu_relax () (* lint: allow unbounded-spin *)
  done
|} in
  check Alcotest.(list string) "R7 suppression needs a reason" [ "unbounded-spin" ]
    (rules (findings_of src))

let suite =
  [
    ("lint raise-under-lock bad", `Quick, test_raise_under_lock_bad);
    ("lint raise-under-lock good", `Quick, test_raise_under_lock_good);
    ("lint raise-under-lock alias", `Quick, test_raise_under_lock_alias);
    ("lint suppression", `Quick, test_suppression);
    ("lint guarded-by bad", `Quick, test_guarded_by_bad);
    ("lint guarded-by good", `Quick, test_guarded_by_good);
    ("lint guarded-by string literal", `Quick, test_guarded_by_string_literal);
    ("lint scopes match-arm dedent", `Quick, test_scopes_match_arm_dedent);
    ("lint scopes expression let", `Quick, test_scopes_expr_let);
    ("lint raw prims", `Quick, test_raw_prims);
    ("lint blocking-under-lock bad", `Quick, test_blocking_under_lock_bad);
    ("lint blocking after unlock", `Quick, test_blocking_after_unlock);
    ("lint blocking in protect body", `Quick, test_blocking_protect_body);
    ("lint blocking sibling scope", `Quick, test_blocking_sibling_scope);
    ("lint blocking suppression", `Quick, test_blocking_suppression);
    ("lint unbounded-spin bad", `Quick, test_unbounded_spin_bad);
    ("lint unbounded-spin good", `Quick, test_unbounded_spin_good);
    ("lint unbounded-spin needs a reason", `Quick, test_unbounded_spin_needs_reason);
    ("audit unannotated atomic", `Quick, test_audit_unannotated);
    ("audit annotated atomic", `Quick, test_audit_annotated);
    ("audit inline record", `Quick, test_audit_inline_record);
    ("audit not a field", `Quick, test_audit_not_a_field);
    ("coverage percentage and gate", `Quick, test_coverage_pct);
  ]

(* Regression tests for the deterministic concurrency checker: the DFS
   explorer must exhaust (or boundedly pass) the correct variants, detect
   the seeded bugs with a schedule that replays, and the happens-before
   race detector must flag exactly the unsynchronized pairs. *)

module Explore = Zmsq_check.Explore
module Scenarios = Zmsq_check.Scenarios
module Race = Zmsq_check.Race

let check = Alcotest.check

let entry name =
  match Scenarios.find name with
  | Some e -> e
  | None -> Alcotest.failf "no such scenario: %s" name

let expect_pass ?(want_complete = false) name =
  let e = entry name in
  match Scenarios.run_entry e with
  | Explore.Pass s ->
      if want_complete && not s.complete then
        Alcotest.failf "%s: expected exhaustive exploration, got bounded pass" name
  | Explore.Fail r -> Alcotest.failf "%s: unexpected failure:\n%s" name (Explore.pp_report r)

let expect_detect_and_replay name =
  let e = entry name in
  match Scenarios.run_entry e with
  | Explore.Pass _ -> Alcotest.failf "%s: seeded bug not detected" name
  | Explore.Fail r -> (
      check Alcotest.bool "non-empty schedule" true (r.Explore.schedule <> []);
      match Explore.replay ~max_steps:e.Scenarios.max_steps e.Scenarios.scenario r.Explore.schedule with
      | Explore.Fail _ -> ()
      | Explore.Pass _ -> Alcotest.failf "%s: reported schedule did not reproduce the bug" name)

(* {2 Eventcount} *)

let test_ec_mini_ok () = expect_pass ~want_complete:true "ec-mini"
let test_ec_mini_bug () = expect_detect_and_replay "ec-mini-lost-wakeup"
let test_ec_real_1x1 () = expect_pass ~want_complete:true "ec-1x1"

(* {2 Hazard pointers} *)

let test_hazard_ok () = expect_pass ~want_complete:true "hazard-protect"
let test_hazard_bug () = expect_detect_and_replay "hazard-publish-race"

(* {2 Lock mutual exclusion} *)

let test_tatas () = expect_pass "lock-tatas-mutual-exclusion"

(* {2 ZMSQ under the model scheduler (randomized schedules)} *)

let random_pass ?(executions = 40) ~seed name =
  let e = entry name in
  match Explore.random ~max_steps:e.Scenarios.max_steps ~executions ~seed e.Scenarios.scenario with
  | Explore.Pass _ -> ()
  | Explore.Fail r -> Alcotest.failf "%s: unexpected failure:\n%s" name (Explore.pp_report r)

let test_zmsq_lin () = random_pass ~seed:0xBEEF "zmsq-strict-lin"
let test_zmsq_mound () = random_pass ~seed:0xFACE "zmsq-mound-invariant"

(* {2 Liveness scenarios (PR 4): the three seeded blocking/buffering bugs
   must be detected with a replayable schedule, and the fixed code must
   pass the same scenarios. *)

let test_timeout_mini_ok () = expect_pass "timeout-mini-final-poll"
let test_timeout_mini_bug () = expect_detect_and_replay "timeout-mini-skip-final-poll"
let test_buf_mini_ok () = expect_pass "buf-mini-demand"
let test_buf_mini_bug () = expect_detect_and_replay "buf-mini-demand-prestage"
let test_bulk_mini_ok () = expect_pass "bulk-mini-wake-all"
let test_bulk_mini_bug () = expect_detect_and_replay "bulk-mini-single-wake"
let test_zmsq_timeout_poll () = random_pass ~executions:60 ~seed:0x7140 "zmsq-timeout-poll"

let test_zmsq_buffer_oneshot () =
  random_pass ~executions:40 ~seed:0xB0F4 "zmsq-buffer-wakeup-oneshot"

let test_zmsq_flush_wakes_all () =
  random_pass ~executions:40 ~seed:0xB0F5 "zmsq-flush-wakes-all"

let test_zmsq_chaos_trylock () = random_pass ~executions:40 ~seed:0xC4A5 "zmsq-chaos-trylock"

let test_zmsq_chaos_buffered () =
  random_pass ~executions:40 ~seed:0xC4A6 "zmsq-chaos-buffered"

(* {2 Lifecycle scenarios (PR 5): the four seeded shutdown/reclaim bugs
   must be detected with a replayable schedule, and the fixed code must
   pass the same scenarios. *)

let test_close_mini_ok () = expect_pass ~want_complete:true "close-mini"
let test_close_mini_bug () = expect_detect_and_replay "close-mini-flag-after-wake"
let test_insert_close_mini_ok () = expect_pass ~want_complete:true "insert-close-mini"

let test_insert_close_mini_bug () =
  expect_detect_and_replay "insert-close-mini-stage-first"

let test_orphan_race_mini_ok () = expect_pass ~want_complete:true "orphan-race-mini"
let test_orphan_race_mini_bug () = expect_detect_and_replay "orphan-race-mini-blind-store"
let test_drain_mini_ok () = expect_pass ~want_complete:true "drain-mini"
let test_drain_mini_bug () = expect_detect_and_replay "drain-mini-ignore-staged"
let test_zmsq_close_wakes_all () = random_pass ~executions:40 ~seed:0xC105 "zmsq-close-wakes-all"

let test_zmsq_insert_close_conserve () =
  random_pass ~executions:60 ~seed:0xC106 "zmsq-insert-close-conserve"

let test_zmsq_orphan_reclaim_race () =
  random_pass ~executions:60 ~seed:0x0A7A "zmsq-orphan-reclaim-race"

let test_zmsq_drain_exact () = random_pass ~executions:40 ~seed:0xD7A1 "zmsq-drain-exact"

(* Determinism: the same schedule replayed twice yields the same outcome. *)
let test_replay_deterministic () =
  let e = entry "ec-mini-lost-wakeup" in
  match Scenarios.run_entry e with
  | Explore.Pass _ -> Alcotest.fail "seeded bug not detected"
  | Explore.Fail r ->
      let go () = Explore.replay ~max_steps:e.Scenarios.max_steps e.Scenarios.scenario r.Explore.schedule in
      let reason = function
        | Explore.Fail r -> r.Explore.reason
        | Explore.Pass _ -> "pass"
      in
      check Alcotest.string "replay outcome stable" (reason (go ())) (reason (go ()))

(* {2 Race-detector unit tests}

   The vector-clock algebra and the FastTrack cell checks are driven
   directly, outside any scheduler run; the scenario-level tests below
   then cover the full pipeline (shim events -> detection -> replay). *)

let test_race_vc_algebra () =
  let open Race.Vc in
  let a = create () and b = create () in
  tick a 0;
  tick a 0;
  tick b 1;
  check Alcotest.int "own component" 2 (get a 0);
  check Alcotest.int "absent component reads 0" 0 (get a 5);
  check Alcotest.bool "incomparable" false (leq a b || leq b a);
  join b a;
  check Alcotest.(list int) "join is pointwise max" [ 2; 1 ] (to_list b);
  check Alcotest.bool "a <= a join b" true (leq a b);
  join b a;
  check Alcotest.(list int) "join idempotent" [ 2; 1 ] (to_list b)

let test_race_acquire_release () =
  Race.begin_run ();
  Race.spawn 0;
  Race.spawn 1;
  (* t0 releases into object #7; t1's acquire joins it: t1 now knows t0's
     epoch at release time, and the object carries both clocks. *)
  Race.sync ~tid:0 ~obj:7;
  Race.sync ~tid:1 ~obj:7;
  check Alcotest.(list int) "t1 acquired t0's release epoch" [ 1; 2 ] (Race.Debug.clock 1);
  check Alcotest.(list int) "object clock joins both" [ 1; 1 ] (Race.Debug.obj_clock 7);
  (* a different object shares no edge *)
  Race.sync ~tid:0 ~obj:8;
  check Alcotest.(list int) "t1 unchanged by foreign sync" [ 1; 2 ] (Race.Debug.clock 1)

let test_race_cell_detects () =
  Race.begin_run ();
  Race.spawn 0;
  Race.spawn 1;
  let cell = Race.new_cell ~name:"unit.cell" () in
  check Alcotest.bool "first write clean" true (Race.write ~tid:0 cell = None);
  (match Race.read ~tid:1 cell with
  | None -> Alcotest.fail "unsynchronized write/read pair not detected"
  | Some report ->
      check Alcotest.bool "report names the cell" true
        (Astring.String.is_infix ~affix:"unit.cell" report));
  (* write/write from another thread is also a race *)
  Race.begin_run ();
  Race.spawn 0;
  Race.spawn 1;
  let cell = Race.new_cell ~name:"unit.ww" () in
  check Alcotest.bool "first write clean" true (Race.write ~tid:0 cell = None);
  check Alcotest.bool "write/write detected" true (Race.write ~tid:1 cell <> None)

let test_race_cell_fenced () =
  Race.begin_run ();
  Race.spawn 0;
  Race.spawn 1;
  let cell = Race.new_cell ~name:"unit.fenced" () in
  check Alcotest.bool "write clean" true (Race.write ~tid:0 cell = None);
  (* t0 releases, t1 acquires: the pair is ordered, no race *)
  Race.sync ~tid:0 ~obj:3;
  Race.sync ~tid:1 ~obj:3;
  check Alcotest.bool "fenced read clean" true (Race.read ~tid:1 cell = None);
  check Alcotest.bool "fenced write clean" true (Race.write ~tid:1 cell = None)

let test_race_cell_benign () =
  Race.begin_run ();
  Race.spawn 0;
  Race.spawn 1;
  let cell = Race.new_cell ~benign:"declared for the test" ~name:"unit.benign" () in
  check Alcotest.bool "write clean" true (Race.write ~tid:0 cell = None);
  check Alcotest.bool "benign read not reported" true (Race.read ~tid:1 cell = None);
  check Alcotest.bool "benign write not reported" true (Race.write ~tid:1 cell = None)

(* {2 Sharding scenarios (PR 8): the sticky re-roll and two-choice-sweep
   decisions must be exhaustively clean, their seeded buggy twins detected
   with a replayable schedule, and the real sharded queue must conserve
   elements under the random scheduler. *)

let test_shard_reroll_mini_ok () = expect_pass ~want_complete:true "shard-reroll-mini"

let test_shard_reroll_mini_bug () =
  expect_detect_and_replay "shard-reroll-mini-sticky-stuck"

let test_shard_stale_max_mini_ok () = expect_pass ~want_complete:true "shard-stale-max-mini"

let test_shard_stale_max_mini_bug () =
  expect_detect_and_replay "shard-stale-max-mini-no-sweep"

let test_zmsq_shard_conserve () = random_pass ~executions:60 ~seed:0x54A2 "zmsq-shard-conserve"

let test_shard_wait_mini_ok () = expect_pass ~want_complete:true "shard-wait-mini"
let test_shard_wait_mini_bug () = expect_detect_and_replay "shard-wait-mini-rotating-park"

(* {2 Race-detector scenarios: seeded positive + fence negatives} *)

let test_race_unsync_counter () = expect_detect_and_replay "race-unsync-counter"
let test_race_benign_declared () = expect_pass ~want_complete:true "race-benign-declared"
let test_race_lock_fence () = expect_pass ~want_complete:true "race-lock-fence"
let test_race_ec_fence () = expect_pass ~want_complete:true "race-ec-fence"

let suite =
  [
    ("ec-mini exhaustive pass", `Quick, test_ec_mini_ok);
    ("ec-mini lost wakeup detected", `Quick, test_ec_mini_bug);
    ("ec 1x1 exhaustive pass", `Quick, test_ec_real_1x1);
    ("hazard protect pass", `Quick, test_hazard_ok);
    ("hazard publish race detected", `Quick, test_hazard_bug);
    ("tatas mutual exclusion", `Quick, test_tatas);
    ("zmsq linearizable under model", `Slow, test_zmsq_lin);
    ("zmsq mound invariant under model", `Slow, test_zmsq_mound);
    ("replay deterministic", `Quick, test_replay_deterministic);
    ("timeout mini final poll", `Slow, test_timeout_mini_ok);
    ("timeout mini bug detected", `Quick, test_timeout_mini_bug);
    ("buf mini demand", `Slow, test_buf_mini_ok);
    ("buf mini bug detected", `Quick, test_buf_mini_bug);
    ("bulk mini wake-all", `Slow, test_bulk_mini_ok);
    ("bulk mini bug detected", `Quick, test_bulk_mini_bug);
    ("zmsq timeout poll under model", `Slow, test_zmsq_timeout_poll);
    ("zmsq buffer oneshot wakeup under model", `Slow, test_zmsq_buffer_oneshot);
    ("zmsq flush wakes all under model", `Slow, test_zmsq_flush_wakes_all);
    ("zmsq chaos trylock under model", `Slow, test_zmsq_chaos_trylock);
    ("zmsq chaos buffered under model", `Slow, test_zmsq_chaos_buffered);
    ("close mini flag-then-wake", `Quick, test_close_mini_ok);
    ("close mini bug detected", `Quick, test_close_mini_bug);
    ("insert-close mini gate-first", `Quick, test_insert_close_mini_ok);
    ("insert-close mini bug detected", `Quick, test_insert_close_mini_bug);
    ("orphan-race mini CAS", `Quick, test_orphan_race_mini_ok);
    ("orphan-race mini bug detected", `Quick, test_orphan_race_mini_bug);
    ("drain mini exact emptiness", `Quick, test_drain_mini_ok);
    ("drain mini bug detected", `Quick, test_drain_mini_bug);
    ("zmsq close wakes all under model", `Slow, test_zmsq_close_wakes_all);
    ("zmsq insert-close conservation under model", `Slow, test_zmsq_insert_close_conserve);
    ("zmsq orphan reclaim race under model", `Slow, test_zmsq_orphan_reclaim_race);
    ("zmsq drain exactness under model", `Slow, test_zmsq_drain_exact);
    ("shard re-roll mini", `Quick, test_shard_reroll_mini_ok);
    ("shard re-roll mini bug detected", `Quick, test_shard_reroll_mini_bug);
    ("shard stale-max mini", `Quick, test_shard_stale_max_mini_ok);
    ("shard stale-max mini bug detected", `Quick, test_shard_stale_max_mini_bug);
    ("zmsq shard conservation under model", `Slow, test_zmsq_shard_conserve);
    ("shard combined-wait mini", `Quick, test_shard_wait_mini_ok);
    ("shard combined-wait mini bug detected", `Quick, test_shard_wait_mini_bug);
    ("race vc algebra", `Quick, test_race_vc_algebra);
    ("race acquire release", `Quick, test_race_acquire_release);
    ("race cell detects", `Quick, test_race_cell_detects);
    ("race cell fenced", `Quick, test_race_cell_fenced);
    ("race cell benign", `Quick, test_race_cell_benign);
    ("race unsync counter detected", `Quick, test_race_unsync_counter);
    ("race benign declared passes", `Quick, test_race_benign_declared);
    ("race lock fence clean", `Quick, test_race_lock_fence);
    ("race eventcount fence clean", `Quick, test_race_ec_fence);
  ]

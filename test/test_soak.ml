(* Smoke-scale soak: a fixed-seed ~2.1 s run of every phase (0.3 s each
   across the seven phases) with every fault knob enabled (injected
   trylock failures, delayed-then-reposted wakes, spurious timeouts,
   FAA/exchange stalls, a frozen producer, a producer crash without
   unregister, handle churn to slot exhaustion, shard churn and server
   overload under wire faults) against the buffered + blocking queue.
   One runner drives the five single-queue phases and shard-churn
   (server-overload has its own). The watchdogs — conservation,
   staleness, per-shard drain exactness, the zero-budget final-poll
   probe, the one-shot starvation contract and the handle-registry leak
   check — must stay silent; the fault counters prove the faults
   actually fired. A buggy twin runs that runner over a build that drops
   inserts, and the conservation watchdog must catch it in a
   single-queue phase and in shard-churn. The nightly CI job runs the
   same binary for minutes with a random seed. *)

module Soak = Zmsq_harness.Soak

let check = Alcotest.check

let test_soak_smoke () =
  let cfg =
    {
      Soak.default_config with
      Soak.seed = 0x50AC;
      secs = 2.1;
      producers = 2;
      consumers = 2;
      buffer_len = 8;
      faults = Soak.default_faults;
    }
  in
  let r = Soak.run cfg in
  check Alcotest.(list string) "no watchdog violations" [] r.Soak.violations;
  check Alcotest.int "every phase ran"
    (List.length Soak.all_phases)
    (List.length r.Soak.phases);
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "%s: conservation" (Soak.phase_name p.Soak.phase))
        true
        (p.Soak.inserted = p.Soak.extracted + p.Soak.drained))
    r.Soak.phases;
  let stat k = try List.assoc k r.Soak.fault_stats with Not_found -> 0 in
  check Alcotest.bool "trylock faults fired" true (stat "trylock_failures" > 0);
  check Alcotest.bool "stalls fired" true (stat "stalls" > 0);
  check Alcotest.bool "no delayed wake was dropped" true
    (stat "wakes_delayed" = stat "wakes_reposted");
  check Alcotest.bool "the producer crash fired" true (stat "crashes" > 0);
  let reclaimed_of ph =
    List.fold_left
      (fun a p -> if p.Soak.phase = ph then a + p.Soak.reclaimed else a)
      0 r.Soak.phases
  in
  check Alcotest.bool "crashed producer's buffer was reclaimed" true
    (reclaimed_of Soak.Producer_dies >= 1);
  check Alcotest.bool "handle churn reclaimed orphans" true
    (reclaimed_of Soak.Handle_churn >= 1);
  check Alcotest.bool "shard churn reclaimed orphaned sticky handles" true
    (reclaimed_of Soak.Shard_churn >= 1);
  let sleeps = List.fold_left (fun a p -> a + p.Soak.ec_sleeps) 0 r.Soak.phases in
  check Alcotest.bool "eventcount sleeps exercised" true (sleeps > 0)

let test_soak_phase_selection () =
  let cfg =
    {
      Soak.default_config with
      Soak.seed = 0x5E1;
      secs = 0.4;
      phases = [ Soak.Producer_dies ];
    }
  in
  let r = Soak.run cfg in
  check Alcotest.(list string) "no violations" [] r.Soak.violations;
  check Alcotest.int "one phase ran" 1 (List.length r.Soak.phases);
  (match Soak.phase_of_name "handle-churn" with
  | Some Soak.Handle_churn -> ()
  | _ -> Alcotest.fail "phase_of_name handle-churn");
  check Alcotest.bool "phase_of_name rejects junk" true
    (Soak.phase_of_name "nonsense" = None);
  List.iter
    (fun p ->
      match Soak.phase_of_name (Soak.phase_name p) with
      | Some p' when p' = p -> ()
      | _ -> Alcotest.fail ("phase_of_name round-trip: " ^ Soak.phase_name p))
    Soak.all_phases

let test_soak_rejects_bad_config () =
  Alcotest.check_raises "no workers" (Invalid_argument "Soak.run: need workers")
    (fun () -> ignore (Soak.run { Soak.default_config with Soak.producers = 0 }));
  Alcotest.check_raises "no time" (Invalid_argument "Soak.run: secs must be positive")
    (fun () -> ignore (Soak.run { Soak.default_config with Soak.secs = 0. }));
  Alcotest.check_raises "no phases"
    (Invalid_argument "Soak.run: need at least one phase") (fun () ->
      ignore (Soak.run { Soak.default_config with Soak.phases = [] }))

(* A queue that silently loses one insert in [drop_1in]: the element is
   counted by the soak but never published. *)
let drop_1in = 997

module Lossy (Q : Zmsq.SHARDED) = struct
  include Q

  let seen = Atomic.make 0

  let insert h e =
    if Atomic.fetch_and_add seen 1 mod drop_1in <> drop_1in - 1 then Q.insert h e
end

module Lossy_soak = Soak.Make (Lossy)

let test_soak_buggy_twin () =
  let cfg =
    {
      Soak.default_config with
      Soak.seed = 0x7A1;
      secs = 0.4;
      phases = [ Soak.Mixed; Soak.Shard_churn ];
    }
  in
  let conservation_in (r : Soak.report) phase =
    let prefix = Soak.phase_name phase ^ ": conservation:" in
    List.exists (String.starts_with ~prefix) r.Soak.violations
  in
  let honest = Soak.run cfg in
  check Alcotest.(list string) "honest builds: no violations" [] honest.Soak.violations;
  let lossy = Lossy_soak.run cfg in
  List.iter
    (fun phase ->
      check Alcotest.bool
        (Soak.phase_name phase ^ ": lossy build caught by conservation")
        true (conservation_in lossy phase))
    cfg.Soak.phases

let suite =
  [
    ("soak smoke under full fault injection", `Slow, test_soak_smoke);
    ("soak phase selection and naming", `Slow, test_soak_phase_selection);
    ("soak config validation", `Quick, test_soak_rejects_bad_config);
    ("soak runner catches a lossy build", `Slow, test_soak_buggy_twin);
  ]

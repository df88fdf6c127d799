(* Tests for zmsq_sync: locks, backoff, barrier, futex, eventcount. *)

module Lock = Zmsq_sync.Lock
module Barrier = Zmsq_sync.Barrier
module Futex = Zmsq_sync.Futex
module Eventcount = Zmsq_sync.Eventcount

let check = Alcotest.check

(* {2 Locks} *)

let lock_basics (module L : Lock.S) () =
  let l = L.create () in
  check Alcotest.bool "try on free" true (L.try_acquire l);
  check Alcotest.bool "try on held" false (L.try_acquire l);
  L.release l;
  check Alcotest.bool "try after release" true (L.try_acquire l);
  L.release l;
  L.acquire l;
  check Alcotest.bool "try while acquired" false (L.try_acquire l);
  L.release l

(* Mutual exclusion: concurrent increments of an unprotected counter under
   the lock must not lose updates. *)
let lock_mutual_exclusion (module L : Lock.S) () =
  let l = L.create () in
  let counter = ref 0 in
  let threads = 4 and per = 20_000 in
  let domains =
    Array.init threads (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              L.acquire l;
              counter := !counter + 1;
              L.release l
            done))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "no lost updates" (threads * per) !counter

let trylock_progress (module L : Lock.S) () =
  let l = L.create () in
  let counter = ref 0 in
  let threads = 4 and per = 10_000 in
  let domains =
    Array.init threads (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              let rec go () = if L.try_acquire l then () else go () in
              go ();
              counter := !counter + 1;
              L.release l
            done))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "trylock no lost updates" (threads * per) !counter

let test_backoff () =
  let b = Zmsq_sync.Backoff.create ~min_spins:2 ~max_spins:16 () in
  for _ = 1 to 10 do
    Zmsq_sync.Backoff.once b
  done;
  Zmsq_sync.Backoff.reset b;
  Alcotest.check_raises "invalid" (Invalid_argument "Backoff.create") (fun () ->
      ignore (Zmsq_sync.Backoff.create ~min_spins:0 ~max_spins:1 ()))

(* {2 Barrier} *)

let test_barrier_rounds () =
  let threads = 4 and rounds = 50 in
  let b = Barrier.create threads in
  let log = Array.make threads 0 in
  let domains =
    Array.init threads (fun t ->
        Domain.spawn (fun () ->
            for r = 1 to rounds do
              Barrier.wait b;
              (* After the barrier, every thread must have finished round r-1. *)
              log.(t) <- r
            done))
  in
  Array.iter Domain.join domains;
  Array.iter (fun v -> check Alcotest.int "all rounds done" rounds v) log

let test_barrier_releases_all () =
  let b = Barrier.create 3 in
  let done_count = Atomic.make 0 in
  let domains =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Barrier.wait b;
            Atomic.incr done_count))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "all released" 3 (Atomic.get done_count)

(* {2 Futex} *)

let test_futex_no_wait_on_changed () =
  let f = Futex.create 5 in
  (* word != expected: wait must return immediately *)
  Futex.wait f 4;
  check Alcotest.int "get" 5 (Futex.get f)

let test_futex_wake () =
  let f = Futex.create 0 in
  let woke = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Futex.wait f 0;
        Atomic.set woke true)
  in
  Unix.sleepf 0.05;
  check Alcotest.bool "still sleeping" false (Atomic.get woke);
  ignore (Futex.compare_and_set f 0 1);
  Futex.wake f;
  Domain.join d;
  check Alcotest.bool "woke after change+wake" true (Atomic.get woke)

let test_futex_cas () =
  let f = Futex.create 10 in
  check Alcotest.bool "cas ok" true (Futex.compare_and_set f 10 11);
  check Alcotest.bool "cas stale" false (Futex.compare_and_set f 10 12);
  check Alcotest.int "value" 11 (Futex.get f)

(* {2 Eventcount} *)

let test_eventcount_fast_path () =
  let ec = Eventcount.create ~initial:5 () in
  (* 5 credits: five waits return without sleeping *)
  for _ = 1 to 5 do
    Eventcount.wait_before_extract ec
  done;
  check Alcotest.int "no sleeps" 0 (Eventcount.sleeps ec)

let test_eventcount_would_sleep () =
  let ec = Eventcount.create ~initial:1 () in
  check Alcotest.bool "credit available" false (Eventcount.would_sleep ec);
  Eventcount.wait_before_extract ec;
  check Alcotest.bool "exhausted" true (Eventcount.would_sleep ec)

let test_eventcount_handoff () =
  (* Consumers wait; producers signal; everyone gets through. *)
  let ec = Eventcount.create ~slots:4 ~spin:32 ~initial:0 () in
  let items = 5_000 in
  let producers = 2 and consumers = 2 in
  let produced = Atomic.make 0 in
  let cons =
    Array.init consumers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to items / consumers do
              Eventcount.wait_before_extract ec
            done))
  in
  let prods =
    Array.init producers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to items / producers do
              Atomic.incr produced;
              Eventcount.signal_after_insert ec
            done))
  in
  Array.iter Domain.join prods;
  Array.iter Domain.join cons;
  check Alcotest.int "all produced" items (Atomic.get produced)

let test_futex_wait_for_timeout () =
  let f = Futex.create 0 in
  let t0 = Zmsq_util.Timing.now_ns () in
  let changed = Futex.wait_for f 0 ~timeout_ns:20_000_000 in
  let dt = Zmsq_util.Timing.now_ns () - t0 in
  check Alcotest.bool "timed out" false changed;
  check Alcotest.bool "waited roughly the timeout" true (dt >= 15_000_000 && dt < 500_000_000)

let test_futex_wait_for_change () =
  let f = Futex.create 0 in
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.01;
        ignore (Futex.compare_and_set f 0 1);
        Futex.wake f)
  in
  let changed = Futex.wait_for f 0 ~timeout_ns:2_000_000_000 in
  Domain.join d;
  check Alcotest.bool "observed change before deadline" true changed

let test_eventcount_wait_for () =
  let ec = Eventcount.create ~initial:1 () in
  check Alcotest.bool "credit: immediate" true (Eventcount.wait_before_extract_for ec ~timeout_ns:1_000);
  check Alcotest.bool "no credit: timeout" false
    (Eventcount.wait_before_extract_for ec ~timeout_ns:5_000_000);
  (* a signal during the wait releases it *)
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.01;
        (* two signals: one pairs the timed-out ticket above, one for the
           waiter below *)
        Eventcount.signal_after_insert ec;
        Eventcount.signal_after_insert ec)
  in
  let got = Eventcount.wait_before_extract_for ec ~timeout_ns:2_000_000_000 in
  Domain.join d;
  check Alcotest.bool "released by signal" true got

let test_eventcount_sleep_wake () =
  let ec = Eventcount.create ~slots:2 ~spin:1 ~initial:0 () in
  let d = Domain.spawn (fun () -> Eventcount.wait_before_extract ec) in
  Unix.sleepf 0.05;
  Eventcount.signal_after_insert ec;
  Domain.join d;
  check Alcotest.bool "signaled through sleep" true true

let test_eventcount_signal_n_fast () =
  let ec = Eventcount.create ~initial:0 () in
  Eventcount.signal_n ec 3;
  for _ = 1 to 3 do
    Eventcount.wait_before_extract ec
  done;
  check Alcotest.int "bulk credit consumed without sleeping" 0 (Eventcount.sleeps ec);
  Eventcount.signal_n ec 0;
  check Alcotest.bool "n=0 credits nothing" true (Eventcount.would_sleep ec);
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Eventcount.signal_n") (fun () -> Eventcount.signal_n ec (-1))

let test_eventcount_signal_n_releases_all () =
  (* Four sleepers share two slots; one signal_n 4 must release every one
     of them with at most one wake per covered slot. *)
  let ec = Eventcount.create ~slots:2 ~spin:1 ~initial:0 () in
  let doms =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Eventcount.wait_before_extract ec))
  in
  let deadline = Zmsq_util.Timing.now_ns () + 2_000_000_000 in
  while Eventcount.sleeps ec < 4 && Zmsq_util.Timing.now_ns () < deadline do
    Unix.sleepf 0.001
  done;
  Eventcount.signal_n ec 4;
  List.iter Domain.join doms;
  let sleeps = Eventcount.sleeps ec and wakes = Eventcount.wakes ec in
  check Alcotest.bool "sleep/wake balance: at most one wake per slot"
    true
    (wakes >= 1 && wakes <= 2);
  check Alcotest.bool "every sleeper was woken (joined) after >=4 sleeps" true
    (sleeps >= 4);
  check Alcotest.bool "credits fully consumed" true (Eventcount.would_sleep ec)

let test_eventcount_close_wakes_all () =
  (* Sleepers across several slots; one [close] must release every one of
     them with no matching inserts, and future waits must not sleep. *)
  let ec = Eventcount.create ~slots:4 ~spin:1 ~initial:0 () in
  let doms =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Eventcount.wait_before_extract ec))
  in
  let deadline = Zmsq_util.Timing.now_ns () + 2_000_000_000 in
  while Eventcount.sleeps ec < 4 && Zmsq_util.Timing.now_ns () < deadline do
    Unix.sleepf 0.001
  done;
  check Alcotest.bool "not closed yet" false (Eventcount.is_closed ec);
  Eventcount.close ec;
  List.iter Domain.join doms;
  check Alcotest.bool "closed" true (Eventcount.is_closed ec);
  (* Poisoned: the post-close wait returns immediately (bounded by the
     join above, these would hang forever on a regression). *)
  let before = Eventcount.sleeps ec in
  Eventcount.wait_before_extract ec;
  check Alcotest.int "post-close wait never sleeps" before (Eventcount.sleeps ec);
  check Alcotest.bool "post-close timed wait immediate" true
    (Eventcount.wait_before_extract_for ec ~timeout_ns:1_000);
  check Alcotest.bool "would_sleep false once closed" false (Eventcount.would_sleep ec);
  Eventcount.close ec (* idempotent *)

(* Satellite: ticket balance under timeout storms — the re-credited-ticket
   argument from DESIGN.md Section 8, at scale.

   Concurrent half: under a pure timeout storm (no real inserts), a wait
   may still be released "spuriously" when another waiter's compensating
   signal covers its ticket. That release consumes exactly one re-credited
   ticket, so at quiescence the invariants are: releases <= timeouts
   (credits are only ever re-credits, never invented), every wait
   accounted for, and [would_sleep] back to true — the storm leaves no
   phantom credit that would let a later wait skip a real insert. *)
let test_eventcount_timeout_storm_balance () =
  let ec = Eventcount.create ~slots:4 ~spin:1 ~initial:0 () in
  let n_domains = 4 and per = 25 in
  let n = n_domains * per in
  let timeouts = Atomic.make 0 and releases = Atomic.make 0 in
  let doms =
    Array.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              if Eventcount.wait_before_extract_for ec ~timeout_ns:1_000_000 then
                Atomic.incr releases
              else Atomic.incr timeouts
            done))
  in
  Array.iter Domain.join doms;
  let to_ = Atomic.get timeouts and tr = Atomic.get releases in
  check Alcotest.int "every wait accounted for" n (to_ + tr);
  check Alcotest.bool "releases never exceed re-credits" true (tr <= to_);
  check Alcotest.bool "no phantom credit survives the storm" true
    (Eventcount.would_sleep ec)

(* Deterministic half: sequential timeouts re-credit exactly their own
   ticket (the compensating signal lands one short of the next ticket), so
   N timeouts followed by N inserts leaves N credits that N waits then
   consume without a single sleep — and the balance ends exactly even. *)
let test_eventcount_timeout_recredit_exact () =
  let ec = Eventcount.create ~slots:4 ~spin:1 ~initial:0 () in
  let n = 50 in
  for _ = 1 to n do
    check Alcotest.bool "sequential wait times out" false
      (Eventcount.wait_before_extract_for ec ~timeout_ns:100_000)
  done;
  check Alcotest.bool "balanced after timeouts" true (Eventcount.would_sleep ec);
  for _ = 1 to n do
    Eventcount.signal_after_insert ec
  done;
  check Alcotest.bool "credits visible" false (Eventcount.would_sleep ec);
  let sleeps_before = Eventcount.sleeps ec in
  for _ = 1 to n do
    Eventcount.wait_before_extract ec
  done;
  check Alcotest.int "n waits consume n credits without sleeping" sleeps_before
    (Eventcount.sleeps ec);
  check Alcotest.bool "exactly consumed: next wait would sleep" true
    (Eventcount.would_sleep ec)

let lock_suites =
  List.concat_map
    (fun (name, l) ->
      [
        (name ^ " basics", `Quick, lock_basics l);
        (name ^ " mutual exclusion", `Quick, lock_mutual_exclusion l);
        (name ^ " trylock progress", `Quick, trylock_progress l);
      ])
    [
      ("tas", (module Lock.Tas : Lock.S));
      ("tatas", (module Lock.Tatas : Lock.S));
      ("mutex", (module Lock.Mutex_lock : Lock.S));
    ]

let suite =
  lock_suites
  @ [
      ("backoff", `Quick, test_backoff);
      ("barrier rounds", `Quick, test_barrier_rounds);
      ("barrier releases all", `Quick, test_barrier_releases_all);
      ("futex no wait on changed", `Quick, test_futex_no_wait_on_changed);
      ("futex wake", `Quick, test_futex_wake);
      ("futex cas", `Quick, test_futex_cas);
      ("eventcount fast path", `Quick, test_eventcount_fast_path);
      ("eventcount would_sleep", `Quick, test_eventcount_would_sleep);
      ("eventcount handoff", `Quick, test_eventcount_handoff);
      ("eventcount sleep/wake", `Quick, test_eventcount_sleep_wake);
      ("futex wait_for timeout", `Quick, test_futex_wait_for_timeout);
      ("futex wait_for change", `Quick, test_futex_wait_for_change);
      ("eventcount wait_for", `Quick, test_eventcount_wait_for);
      ("eventcount signal_n fast path", `Quick, test_eventcount_signal_n_fast);
      ("eventcount signal_n releases all", `Quick, test_eventcount_signal_n_releases_all);
      ("eventcount close wakes all sleepers", `Quick, test_eventcount_close_wakes_all);
      ("eventcount ticket balance under timeout storm", `Quick, test_eventcount_timeout_storm_balance);
      ("eventcount timeout re-credit exactness", `Quick, test_eventcount_timeout_recredit_exact);
    ]

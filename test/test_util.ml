(* Tests for zmsq_util: RNG, statistics, env parsing. *)

module Rng = Zmsq_util.Rng
module Stats = Zmsq_util.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:1 () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

(* Seeded tests, benchmark inputs and checker replays depend on the exact
   stream, so a change to how the state is stored must not move it. *)
let test_rng_pinned_stream () =
  let t = Rng.create ~seed:0x5EED () in
  List.iter
    (fun want -> check Alcotest.int64 "int64" want (Rng.int64 t))
    [ -1210358410065458316L; -2164664542880791269L; -2834165613409827270L ];
  check Alcotest.int "int 1000" 920 (Rng.int t 1000);
  check Alcotest.int "int 7" 5 (Rng.int t 7);
  check Alcotest.int64 "split child" (-1427846536778878775L) (Rng.int64 (Rng.split t));
  check Alcotest.int64 "parent after split" 5628034012957674668L (Rng.int64 t)

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 () in
  let a = Rng.split parent and b = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check Alcotest.bool "split streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformish () =
  let rng = Rng.create ~seed:5 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      check Alcotest.bool (Printf.sprintf "bucket %d near uniform" i) true
        (abs (c - expected) < expected / 5))
    buckets

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:11 () in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check Alcotest.bool "float in bounds" true (v >= 0.0 && v < 2.5)
  done

let test_rng_normal_moments () =
  let rng = Rng.create ~seed:13 () in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mean:100.0 ~stddev:15.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  check Alcotest.bool "mean near 100" true (Float.abs (m -. 100.0) < 0.5);
  check Alcotest.bool "stddev near 15" true (Float.abs (sd -. 15.0) < 0.5)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:17 () in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng ~rate:0.5) in
  check Alcotest.bool "mean near 1/rate" true (Float.abs (Stats.mean xs -. 2.0) < 0.1)

let test_rng_permutation () =
  let rng = Rng.create ~seed:19 () in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.bool "is permutation" true (sorted = Array.init 100 Fun.id)

let test_rng_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "exp rate" (Invalid_argument "Rng.exponential: rate must be positive")
    (fun () -> ignore (Rng.exponential rng ~rate:0.0))

let prop_rng_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let rng = Rng.create ~seed:23 () in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* {2 Stats} *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "mean" 3.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "median" 3.0 s.Stats.median;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 5.0 s.Stats.max;
  check Alcotest.int "n" 5 s.Stats.n

let test_stats_stddev () =
  (* sample stddev of 2,4,4,4,5,5,7,9 is ~2.138 *)
  let sd = Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check Alcotest.bool "stddev" true (Float.abs (sd -. 2.138) < 0.01)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p0" 0.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let test_histogram () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  check Alcotest.int "count" 1000 (Stats.Histogram.count h);
  check Alcotest.bool "mean near 500" true (Float.abs (Stats.Histogram.mean h -. 500.5) < 1.0);
  let p50 = Stats.Histogram.percentile h 50.0 in
  check Alcotest.bool "p50 bucket sane" true (p50 >= 256.0 && p50 <= 1024.0)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add a 10.0;
  Stats.Histogram.add b 20.0;
  let m = Stats.Histogram.merge a b in
  check Alcotest.int "merged count" 2 (Stats.Histogram.count m);
  check Alcotest.int "a unchanged" 1 (Stats.Histogram.count a)

let test_histogram_bucket0 () =
  (* Bucket 0 conflates everything below 2.0 — including zero, negatives
     and sub-1ns values — and must also absorb NaN rather than crash or
     index out of bounds. *)
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 0.0; 0.3; 1.999; -5.0; Float.nan; Float.neg_infinity ];
  check Alcotest.int "count" 6 (Stats.Histogram.count h);
  (match Stats.Histogram.buckets h with
  | [ (ub, n) ] ->
      check (Alcotest.float 1e-9) "single bucket ub" 2.0 ub;
      check Alcotest.int "all six conflated" 6 n
  | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs));
  check (Alcotest.float 1e-9) "p99 is bucket-0 ub" 2.0 (Stats.Histogram.percentile h 99.0)

let test_histogram_buckets () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.0; 3.0; 3.5; 1000.0 ];
  let bs = Stats.Histogram.buckets h in
  check Alcotest.int "three populated buckets" 3 (List.length bs);
  check Alcotest.bool "ascending upper bounds" true
    (List.sort compare bs = bs);
  check Alcotest.int "counts total" 4 (List.fold_left (fun a (_, n) -> a + n) 0 bs);
  (* 3.0 and 3.5 share the (2,4] bucket. *)
  check Alcotest.bool "pair bucket present" true (List.mem (4.0, 2) bs);
  check (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "empty histogram" [] (Stats.Histogram.buckets (Stats.Histogram.create ()))

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let xs = Array.of_list (List.map Float.abs l) in
      let v = Stats.percentile xs (Float.abs p) in
      let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* {2 Env} *)

let test_env_defaults () =
  Unix.putenv "ZMSQ_TEST_UNSET" "";
  check Alcotest.int "int default" 42 (Zmsq_util.Env.int "ZMSQ_TEST_NOPE" ~default:42);
  Unix.putenv "ZMSQ_TEST_INT" "17";
  check Alcotest.int "int parse" 17 (Zmsq_util.Env.int "ZMSQ_TEST_INT" ~default:0);
  Unix.putenv "ZMSQ_TEST_INT" "bogus";
  check Alcotest.int "int malformed" 7 (Zmsq_util.Env.int "ZMSQ_TEST_INT" ~default:7);
  Unix.putenv "ZMSQ_TEST_LIST" "1,2, 8";
  check (Alcotest.list Alcotest.int) "int list" [ 1; 2; 8 ]
    (Zmsq_util.Env.int_list "ZMSQ_TEST_LIST" ~default:[])

let test_timing_monotonic () =
  let a = Zmsq_util.Timing.now_ns () in
  let b = Zmsq_util.Timing.now_ns () in
  check Alcotest.bool "monotonic" true (b >= a);
  let (), dt = Zmsq_util.Timing.time_it (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  check Alcotest.bool "time_it positive" true (dt >= 0.0)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng pinned stream", `Quick, test_rng_pinned_stream);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int uniform-ish", `Quick, test_rng_int_uniformish);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng permutation", `Quick, test_rng_permutation);
    ("rng invalid args", `Quick, test_rng_invalid);
    qtest prop_rng_shuffle_preserves;
    ("stats summary", `Quick, test_stats_summary);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats empty", `Quick, test_stats_empty);
    ("histogram basic", `Quick, test_histogram);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram bucket-0 conflation", `Quick, test_histogram_bucket0);
    ("histogram buckets accessor", `Quick, test_histogram_buckets);
    qtest prop_percentile_bounds;
    ("env parsing", `Quick, test_env_defaults);
    ("timing monotonic", `Quick, test_timing_monotonic);
  ]

(* Tests for the benchmark's own machinery: exact percentiles, the
   open-loop schedule, the output checks, the traced queue wrapper, and
   BENCHMARK.json against the metric vocabulary. *)

open Zmsq_benchmark
module Rng = Zmsq_util.Rng
module Json = Zmsq_obs.Json

let check = Alcotest.check

(* {2 Exact percentiles} *)

let oracle xs p =
  let sorted = List.sort Int.compare xs in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9))) in
  List.nth sorted (rank - 1)

let samples_of xs =
  let s = Samples.create (List.length xs) in
  List.iter (Samples.add s) xs;
  s

let test_nearest_rank () =
  let rng = Rng.create ~seed:11 () in
  List.iter
    (fun n ->
      let xs = List.init n (fun _ -> Rng.int rng 1000) in
      let sorted = Samples.sorted_of_list [ samples_of xs ] in
      List.iter
        (fun p ->
          let want = oracle xs p in
          check Alcotest.int (Printf.sprintf "n=%d p=%g" n p) want (Samples.percentile sorted p);
          check Alcotest.int
            (Printf.sprintf "beyond n=%d p=%g" n p)
            (List.length (List.filter (fun x -> x > want) xs))
            (Samples.beyond sorted p))
        [ 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])
    [ 1; 2; 3; 10; 99; 100; 1000; 4097 ]

let test_split_arrays () =
  let a = samples_of [ 5; 1; 9 ] and b = samples_of [ 7; 3 ] in
  let sorted = Samples.sorted_of_list [ a; b ] in
  check Alcotest.(array int) "merged and sorted" [| 1; 3; 5; 7; 9 |] sorted;
  let s = Samples.summarize [ a; b ] in
  check Alcotest.int "p50" 5 s.Samples.p50;
  check Alcotest.int "max" 9 s.Samples.max

let test_capacity () =
  let s = Samples.create 2 in
  List.iter (Samples.add s) [ 1; 2; 3 ];
  check Alcotest.int "kept" 2 (Samples.count s);
  check Alcotest.(array int) "the first ones" [| 1; 2 |] (Samples.sorted_of_list [ s ])

(* A 20% shift of the p90 reads as 20%: the percentile is a sample, not a
   bucket bound. *)
let test_shift_visible () =
  let rng = Rng.create ~seed:5 () in
  let base = List.init 20_000 (fun _ -> 5_000 + int_of_float (Rng.exponential rng ~rate:1e-4)) in
  let shifted = List.map (fun x -> x * 6 / 5) base in
  let p90 xs = float_of_int (Samples.percentile (Samples.sorted_of_list [ samples_of xs ]) 90.0) in
  let ratio = p90 shifted /. p90 base in
  check Alcotest.bool (Printf.sprintf "p90 ratio %.4f" ratio) true
    (Float.abs (ratio -. 1.2) < 0.001)

let test_python_quartiles () =
  let q1, q2, q3 = Samples.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  check (Alcotest.float 1e-9) "q1" 2.75 q1;
  check (Alcotest.float 1e-9) "q2" 5.5 q2;
  check (Alcotest.float 1e-9) "q3" 8.25 q3;
  let q1, _, q3 = Samples.quartiles [| 3.0; 1.0 |] in
  (* statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5] *)
  check (Alcotest.float 1e-9) "two values q1" 0.5 q1;
  check (Alcotest.float 1e-9) "two values q3" 3.5 q3

(* {2 Open loop} *)

let test_schedule_deterministic () =
  let s1 = Openloop.schedule ~seed:3 ~rate:4000.0 ~duration_ns:1_000_000_000 in
  let s2 = Openloop.schedule ~seed:3 ~rate:4000.0 ~duration_ns:1_000_000_000 in
  let s3 = Openloop.schedule ~seed:4 ~rate:4000.0 ~duration_ns:1_000_000_000 in
  check Alcotest.(array int) "same seed, same schedule" s1 s2;
  check Alcotest.bool "another seed, another schedule" true (s1 <> s3);
  Array.iteri
    (fun i t ->
      check Alcotest.bool "inside the window" true (t > 0 && t < 1_000_000_000);
      if i > 0 then check Alcotest.bool "increasing" true (t > s1.(i - 1)))
    s1;
  let n = float_of_int (Array.length s1) in
  check Alcotest.bool (Printf.sprintf "%g arrivals for 4000/s" n) true
    (Float.abs (n -. 4000.0) < 250.0)

(* A 10 ms stall in the sink is charged to every request that was due
   during it, measured from its intended send time. *)
let test_stall_charged () =
  let clock = ref 0 in
  let gap = 1_000_000 and stall = 10_000_000 in
  let sched = Array.init 50 (fun i -> (i + 1) * gap) in
  let done_at = Array.make 50 0 in
  let lag = Samples.create 50 in
  let send i =
    if i = 10 then clock := !clock + stall;
    done_at.(i) <- !clock
  in
  Openloop.drive ~now:(fun () -> !clock) ~wait:(fun t -> clock := t) ~start:0 ~sched ~send ~lag;
  let latency i = done_at.(i) - sched.(i) in
  check Alcotest.int "the stalled request" stall (latency 10);
  for i = 11 to 19 do
    (* Due at (i+1) ms, sent when the stall ended at 21 ms. *)
    check Alcotest.int (Printf.sprintf "request %d charged" i)
      ((21 - (i + 1)) * 1_000_000)
      (latency i)
  done;
  for i = 20 to 49 do
    check Alcotest.int (Printf.sprintf "request %d on time" i) 0 (latency i)
  done;
  let lag_p99 = Samples.percentile (Samples.sorted_of_list [ lag ]) 99.0 in
  check Alcotest.int "generator lag p99" (9 * 1_000_000) lag_p99;
  check Alcotest.bool "flagged invalid" true
    (Openloop.lag_pct ~lag_p99_ns:lag_p99 ~rate:1000.0 > 100.0);
  check Alcotest.bool "a 1 us lag is valid" true
    (Openloop.lag_pct ~lag_p99_ns:1_000 ~rate:1000.0 <= 100.0)

(* {2 Output checks reject corrupted results} *)

let ok = function Ok () -> true | Error _ -> false

let test_steady_check () =
  let good =
    {
      Checks.in_count = 10;
      in_sum = 100;
      out_count = 4;
      out_sum = 30;
      left_count = 6;
      left_sum = 70;
      invariant = true;
    }
  in
  check Alcotest.bool "intact" true (ok (Checks.steady good));
  check Alcotest.bool "lost element" false (ok (Checks.steady { good with left_count = 5 }));
  check Alcotest.bool "changed element" false (ok (Checks.steady { good with out_sum = 31 }));
  check Alcotest.bool "broken tree" false (ok (Checks.steady { good with invariant = false }))

let test_handoff_check () =
  check Alcotest.bool "intact" true (ok (Checks.exactly_once [| 1; 1; 1 |]));
  check Alcotest.bool "lost" false (ok (Checks.exactly_once [| 1; 0; 1 |]));
  check Alcotest.bool "duplicated" false (ok (Checks.exactly_once [| 1; 2; 1 |]))

let test_sssp_check () =
  let oracle = [| 0; 3; 5; Zmsq_graph.Dijkstra.infinity_dist |] in
  check Alcotest.bool "intact" true (ok (Checks.distances ~oracle (Array.copy oracle)));
  let bad = Array.copy oracle in
  bad.(2) <- 6;
  check Alcotest.bool "wrong distance" false (ok (Checks.distances ~oracle bad));
  check Alcotest.bool "short" false (ok (Checks.distances ~oracle [| 0; 3 |]))

let test_rpc_check () =
  let good =
    {
      Checks.preload = 4096;
      acked = 160;
      extracted = 200;
      duplicates = 0;
      drained = Some 4056;
      exit_code = 0;
    }
  in
  check Alcotest.bool "intact" true (ok (Checks.rpc good));
  check Alcotest.bool "lost element" false (ok (Checks.rpc { good with drained = Some 4055 }));
  check Alcotest.bool "duplicate" false (ok (Checks.rpc { good with duplicates = 1 }));
  check Alcotest.bool "server failed" false (ok (Checks.rpc { good with exit_code = 1 }));
  check Alcotest.bool "no drained line" false (ok (Checks.rpc { good with drained = None }));
  check Alcotest.(option int) "drained line" (Some 4056)
    (Rpc.drained_of_line "zmsq_server: drained (4056 elements recovered at shutdown)");
  check Alcotest.(option int) "other line" None (Rpc.drained_of_line "zmsq_server: draining...")

let test_max_rate () =
  let r = Rpc.max_rate [ (4000.0, 0.2); (5657.0, 0.5); (8000.0, 0.8); (11314.0, 1.6) ] in
  check (Alcotest.float 1e-6) "interpolated" (8000.0 +. (0.25 *. 3314.0)) r;
  check (Alcotest.float 1e-6) "every step passed" 8000.0
    (Rpc.max_rate [ (4000.0, 0.2); (8000.0, 0.9) ]);
  check (Alcotest.float 1e-6) "first step failed" 2000.0 (Rpc.max_rate [ (4000.0, 2.0) ])

(* {2 The traced wrapper drives the SSSP solver unchanged} *)

let test_timed_sssp () =
  let g = Zmsq_graph.Gen.politician (Rng.create ~seed:2 ()) in
  let pool = Probe.pool ~stride:1 ~capacity:(1 lsl 16) 3 in
  let q = Zmsq.Default.create () in
  let inst = Probe.instance (module Zmsq.Default) q pool in
  let dist, st = Zmsq_graph.Sssp_parallel.run inst ~graph:g ~source:0 ~threads:2 in
  let oracle = Zmsq_graph.Dijkstra.dijkstra g ~source:0 in
  check Alcotest.bool "distances" true (ok (Checks.distances ~oracle dist));
  let calls = List.fold_left (fun a r -> a + r.Probe.calls) 0 pool.Probe.all in
  let inserts = st.Zmsq_graph.Sssp_parallel.relaxations + 1 in
  check Alcotest.int "every call timed" (inserts + st.pops + st.empty_pops) calls;
  check Alcotest.bool "insert samples kept" true
    (List.exists (fun r -> Samples.count r.Probe.ins > 0) pool.Probe.all);
  check Alcotest.int "recorders returned" 3 (List.length !(pool.Probe.free))

(* {2 BENCHMARK.json names the metrics the code prints} *)

let test_benchmark_json () =
  let ic = open_in "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.of_string_exn text in
  let list k = Option.get (Option.bind (Json.member k j) Json.to_list_opt) in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_string_opt) in
  check Alcotest.(list string) "workloads" Spec.workloads
    (List.map (str "name") (list "workloads"));
  let metrics k spec =
    check
      Alcotest.(list (triple string string string))
      k
      (List.map
         (fun m ->
           (m.Spec.name, m.Spec.unit_, if m.Spec.better = Spec.Lower then "lower" else "higher"))
         spec)
      (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list k))
  in
  metrics "end_to_end" Spec.end_to_end;
  metrics "per_layer" Spec.per_layer

let () =
  Alcotest.run "zmsq_bench"
    [
      ( "samples",
        [
          Alcotest.test_case "nearest rank vs sorted-list oracle" `Quick test_nearest_rank;
          Alcotest.test_case "per-domain arrays merge" `Quick test_split_arrays;
          Alcotest.test_case "capacity drops, never grows" `Quick test_capacity;
          Alcotest.test_case "20% p90 shift visible" `Quick test_shift_visible;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_python_quartiles;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "schedule is a function of the seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "a stall is charged from intended send times" `Quick
            test_stall_charged;
        ] );
      ( "checks",
        [
          Alcotest.test_case "steady_mixed conservation" `Quick test_steady_check;
          Alcotest.test_case "handoff exactly once" `Quick test_handoff_check;
          Alcotest.test_case "sssp distances" `Quick test_sssp_check;
          Alcotest.test_case "rpc_ramp conservation" `Quick test_rpc_check;
          Alcotest.test_case "ramp interpolation" `Quick test_max_rate;
        ] );
      ("probe", [ Alcotest.test_case "timed queue drives Sssp_parallel" `Quick test_timed_sssp ]);
      ("spec", [ Alcotest.test_case "BENCHMARK.json matches Spec" `Quick test_benchmark_json ]);
    ]

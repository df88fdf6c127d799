(* Tests for the benchmark harness itself: tables, runner, throughput,
   accuracy, producer/consumer, handoff, experiment registry. *)

module H = Zmsq_harness
module Keys = Zmsq_dist.Keys

let check = Alcotest.check

(* {2 Table} *)

let test_table_make_and_csv () =
  let t =
    H.Table.make ~id:"t" ~title:"demo" ~header:[ "a"; "b" ] [ [ "1"; "x,y" ]; [ "2"; "z" ] ]
  in
  let csv = H.Table.to_csv t in
  check Alcotest.string "csv quoting" "a,b\n1,\"x,y\"\n2,z\n" csv

let test_table_width_mismatch () =
  Alcotest.check_raises "row width" (Invalid_argument "Table t: row width mismatch") (fun () ->
      ignore (H.Table.make ~id:"t" ~title:"bad" ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_table_save_csv () =
  let dir = Filename.temp_file "zmsq" "" in
  Sys.remove dir;
  let t = H.Table.make ~id:"unit" ~title:"t" ~header:[ "x" ] [ [ "1" ] ] in
  let path = H.Table.save_csv ~dir t in
  check Alcotest.bool "file exists" true (Sys.file_exists path);
  Sys.remove path;
  Sys.rmdir dir

(* {2 Runner} *)

let test_runner_results_ordered () =
  let results, secs = H.Runner.timed_parallel ~threads:4 (fun tid -> tid * 10) in
  check (Alcotest.array Alcotest.int) "per-thread results" [| 0; 10; 20; 30 |] results;
  check Alcotest.bool "time positive" true (secs > 0.0)

let test_runner_setup_phase () =
  let setup_done = Atomic.make 0 in
  let results, _ =
    H.Runner.timed_parallel_pre ~threads:3
      ~setup:(fun tid ->
        Atomic.incr setup_done;
        tid)
      ~run:(fun _ st ->
        (* all setups completed before any run starts (barrier) *)
        (st, Atomic.get setup_done))
  in
  Array.iter (fun (_, seen) -> check Alcotest.int "all setups before run" 3 seen) results

let test_repeat () =
  let n = ref 0 in
  let s =
    H.Runner.repeat 5 (fun () ->
        incr n;
        float_of_int !n)
  in
  check Alcotest.int "ran 5 times" 5 !n;
  check (Alcotest.float 1e-9) "mean" 3.0 s.Zmsq_util.Stats.mean

(* {2 Instances} *)

let test_instances_by_name () =
  List.iter
    (fun name ->
      let inst = (H.Instances.by_name name) () in
      let module I = (val inst : Zmsq_pq.Intf.INSTANCE) in
      let h = I.Q.register I.q in
      I.Q.insert h (Zmsq_pq.Elt.of_priority 5);
      let e = Conc_util.drain_n (module I.Q) h 1 in
      check Alcotest.int (name ^ " roundtrip") 5 (Zmsq_pq.Elt.priority (List.hd e));
      I.Q.unregister h)
    H.Instances.names;
  Alcotest.check_raises "unknown" (Invalid_argument "Instances.by_name: unknown queue \"nope\"")
    (fun () ->
      let (_ : H.Instances.factory) = H.Instances.by_name "nope" in
      ())

(* {2 Throughput} *)

let test_throughput_runs () =
  let spec =
    {
      H.Throughput.default_spec with
      H.Throughput.total_ops = 20_000;
      insert_permil = 500;
      preload = 1_000;
      threads = 2;
    }
  in
  let mops = H.Throughput.run (H.Instances.zmsq ()) spec in
  check Alcotest.bool "positive throughput" true (mops > 0.0)

let test_throughput_invalid () =
  Alcotest.check_raises "bad spec" (Invalid_argument "Throughput.run") (fun () ->
      ignore
        (H.Throughput.run (H.Instances.mound)
           { H.Throughput.default_spec with H.Throughput.total_ops = 0 }))

(* {2 Accuracy} *)

let test_accuracy_strict_queue_is_100 () =
  let factory = H.Instances.zmsq ~params:Zmsq.Params.strict () in
  let pct =
    H.Accuracy.run factory { H.Accuracy.qsize = 2_000; extracts = 200; threads = 1; seed = 1 }
  in
  check (Alcotest.float 1e-9) "strict = 100%" 100.0 pct

let test_accuracy_fifo_floor () =
  (* FIFO expected hit rate = extracts/qsize; shuffled keys, so ~10% here *)
  let pct = H.Accuracy.fifo_baseline { H.Accuracy.qsize = 5_000; extracts = 500; threads = 1; seed = 2 } in
  check Alcotest.bool "fifo near uniform floor" true (pct > 4.0 && pct < 20.0)

let test_accuracy_relaxed_between () =
  let factory = H.Instances.zmsq ~params:Zmsq.Params.(static 16) () in
  let pct =
    H.Accuracy.run factory { H.Accuracy.qsize = 4_096; extracts = 409; threads = 1; seed = 3 }
  in
  check Alcotest.bool "relaxed below strict, above floor" true (pct > 20.0 && pct <= 100.0)

(* {2 Producer/consumer} *)

let test_pc_transfers_all () =
  let r =
    H.Pc.run (H.Instances.zmsq ()) { H.Pc.producers = 2; consumers = 2; items = 10_000; seed = 4 }
  in
  check Alcotest.bool "throughput positive" true (r.H.Pc.transfers_per_sec > 0.0)

let test_pc_spraylist () =
  (* inexact emptiness: failed extracts allowed, transfer still completes *)
  let r =
    H.Pc.run H.Instances.spraylist { H.Pc.producers = 1; consumers = 2; items = 5_000; seed = 5 }
  in
  check Alcotest.bool "completes" true (r.H.Pc.wall_seconds > 0.0)

(* {2 Handoff} *)

let test_handoff_modes () =
  let spec = { H.Handoff.producers = 1; consumers = 2; handoffs = 3_000; batch = 8; seed = 6 } in
  let spin = H.Handoff.run H.Handoff.Spin spec in
  check Alcotest.bool "spin latency positive" true (spin.H.Handoff.mean_latency_ns > 0.0);
  check Alcotest.int "no futex in spin mode" 0 spin.H.Handoff.sleeps;
  let block = H.Handoff.run H.Handoff.Block spec in
  check Alcotest.bool "block latency positive" true (block.H.Handoff.mean_latency_ns > 0.0)

(* {2 SSSP wrapper + experiments registry} *)

let test_sssp_checked () =
  let rng = Zmsq_util.Rng.create ~seed:8 () in
  let g = Zmsq_graph.Gen.barabasi_albert rng ~n:800 ~m:4 ~max_weight:50 in
  let _, st = H.Sssp.run_checked (H.Instances.zmsq ()) ~graph:g ~threads:2 in
  check Alcotest.bool "ran" true (st.Zmsq_graph.Sssp_parallel.pops > 0)

let test_registry_complete () =
  let ids = List.map (fun e -> e.H.Experiments.id) H.Experiments.all in
  List.iter
    (fun id -> check Alcotest.bool (id ^ " registered") true (List.mem id ids))
    [ "fig2a"; "fig2b"; "fig3a"; "fig3b"; "table1a"; "table1b"; "fig4"; "fig5a"; "fig5b";
      "fig5c"; "fig6"; "fig7"; "fig8"; "stable"; "keys7"; "mem"; "patterns"; "ablations" ];
  check Alcotest.bool "find known" true (H.Experiments.find "fig6" <> None);
  check Alcotest.bool "find unknown" true (H.Experiments.find "nope" = None)

(* {2 Perf-CI comparison gate} *)

let test_perfci_compare () =
  let module P = Zmsq_harness.Perfci in
  let mk ?limit ~id ~value ~hb ~th () =
    {
      P.id;
      value;
      unit_ = "x";
      higher_better = hb;
      threshold_pct = th;
      limit;
      wall_seconds = 0.0;
      details = [];
    }
  in
  let results =
    [
      (* -10% on a higher-is-better metric, threshold 20%: fine. *)
      mk ~id:"a" ~value:90.0 ~hb:true ~th:20.0 ();
      (* -50%: past threshold, regression. *)
      mk ~id:"b" ~value:50.0 ~hb:true ~th:20.0 ();
      (* lower-is-better, +40% vs the baseline's 30% override: regression. *)
      mk ~id:"c" ~value:140.0 ~hb:false ~th:90.0 ();
      (* limit-gated metrics with no baseline entry. *)
      mk ~id:"d" ~value:3.0 ~hb:false ~th:0.0 ~limit:5.0 ();
      mk ~id:"e" ~value:7.0 ~hb:false ~th:0.0 ~limit:5.0 ();
    ]
  in
  let base = [ ("a", 100.0, None); ("b", 100.0, None); ("c", 100.0, Some 30.0) ] in
  let cs = P.compare_all base results in
  let find id = List.find (fun c -> c.P.cmp_id = id) cs in
  let ok id = (find id).P.cmp_ok in
  Alcotest.(check bool) "small drop passes" true (ok "a");
  Alcotest.(check bool) "large drop regresses" false (ok "b");
  Alcotest.(check bool) "baseline overrides threshold" false (ok "c");
  Alcotest.(check (float 0.0)) "override is reported" 30.0 (find "c").P.cmp_threshold_pct;
  Alcotest.(check bool) "no baseline + within limit" true (ok "d");
  Alcotest.(check bool) "no baseline + over limit" false (ok "e");
  Alcotest.(check (option (float 0.0))) "missing baseline delta" None
    (find "d").P.cmp_delta_pct

let test_perfci_bless () =
  let module P = Zmsq_harness.Perfci in
  let mk id value =
    {
      P.id;
      value;
      unit_ = "x";
      higher_better = true;
      threshold_pct = 35.0;
      limit = None;
      wall_seconds = value;
      details = [];
    }
  in
  let runs =
    [
      [ mk "fig5a_mops" 3.0; mk "roofline_pair_ratio" 9.0 ];
      [ mk "fig5a_mops" 1.0; mk "roofline_pair_ratio" 7.0 ];
      [ mk "fig5a_mops" 2.0; mk "roofline_pair_ratio" 8.0 ];
      [ mk "fig5a_mops" 4.0; mk "roofline_pair_ratio" 6.0 ];
    ]
  in
  let med = P.median_results runs in
  let value id = (List.find (fun r -> r.P.id = id) med).P.value in
  Alcotest.(check (float 0.0)) "lower middle of an even count" 2.0 (value "fig5a_mops");
  Alcotest.(check (float 0.0)) "each experiment on its own" 7.0 (value "roofline_pair_ratio");
  Alcotest.(check (float 0.0)) "details from the median run" 2.0
    (List.find (fun r -> r.P.id = "fig5a_mops") med).P.wall_seconds;
  let path = Filename.temp_file "perfci" ".json" in
  let keep = [ ("buffer_insert_mops", 5.5, Some 40.0); ("fig5a_mops", 0.5, None) ] in
  ignore
    (Zmsq_obs.Export.write_file ~path
       (Zmsq_obs.Json.to_string (P.baseline_json ~keep [ mk "fig5a_mops" 2.0 ])));
  (match P.load_baseline path with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
      Alcotest.(check (list (triple string (float 0.0) (option (float 0.0)))))
        "subset bless keeps the other entries, in suite order"
        [ ("fig5a_mops", 2.0, Some 35.0); ("buffer_insert_mops", 5.5, Some 40.0) ]
        base);
  Sys.remove path

let suite =
  [
    ("table make + csv", `Quick, test_table_make_and_csv);
    ("table width mismatch", `Quick, test_table_width_mismatch);
    ("table save csv", `Quick, test_table_save_csv);
    ("runner ordered results", `Quick, test_runner_results_ordered);
    ("runner setup before run", `Quick, test_runner_setup_phase);
    ("runner repeat", `Quick, test_repeat);
    ("instances by name", `Quick, test_instances_by_name);
    ("throughput runs", `Quick, test_throughput_runs);
    ("throughput invalid", `Quick, test_throughput_invalid);
    ("accuracy strict = 100%", `Quick, test_accuracy_strict_queue_is_100);
    ("accuracy fifo floor", `Quick, test_accuracy_fifo_floor);
    ("accuracy relaxed between", `Quick, test_accuracy_relaxed_between);
    ("pc transfers all", `Slow, test_pc_transfers_all);
    ("pc spraylist", `Slow, test_pc_spraylist);
    ("handoff modes", `Slow, test_handoff_modes);
    ("sssp checked wrapper", `Quick, test_sssp_checked);
    ("experiments registry", `Quick, test_registry_complete);
    ("perfci comparison gate", `Quick, test_perfci_compare);
    ("perfci median bless", `Quick, test_perfci_bless);
  ]

(* Tests for the zmsq_obs subsystem: sharded metrics exactness under
   multi-domain load, tear-free (monotone) snapshots, agreement between
   the new registry and the legacy [Zmsq.Debug.counters] view, trace ring
   shape, and the export formats. *)

module Metrics = Zmsq_obs.Metrics
module Trace = Zmsq_obs.Trace
module Export = Zmsq_obs.Export
module Json = Zmsq_obs.Json

let check = Alcotest.check

(* {2 Metrics} *)

let test_counter_exact_multidomain () =
  let m = Metrics.create ~name:"t" () in
  let c = Metrics.counter m "hits" in
  let domains = 4 and per = 10_000 in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  check Alcotest.int "merged total exact" (domains * per) (Metrics.value c);
  let snap = Metrics.snapshot m in
  check Alcotest.int "snapshot agrees" (domains * per) (List.assoc "hits" snap.Metrics.counters)

let test_snapshot_monotone_under_load () =
  (* Writers increment two counters in lockstep while the main domain
     snapshots repeatedly: each per-counter total must never decrease
     from one snapshot to the next (no torn/partial reads). *)
  let m = Metrics.create ~name:"t" () in
  let a = Metrics.counter m "a" and b = Metrics.counter m "b" in
  let stop = Atomic.make false in
  let ds =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Metrics.incr a;
              Metrics.incr b
            done))
  in
  let last_a = ref 0 and last_b = ref 0 in
  for _ = 1 to 200 do
    let s = Metrics.snapshot m in
    let va = List.assoc "a" s.Metrics.counters and vb = List.assoc "b" s.Metrics.counters in
    if va < !last_a || vb < !last_b then Alcotest.fail "snapshot total went backwards";
    last_a := va;
    last_b := vb
  done;
  Atomic.set stop true;
  List.iter Domain.join ds;
  check Alcotest.bool "saw progress" true (!last_a > 0)

let test_gauge_and_histogram () =
  let m = Metrics.create ~name:"t" () in
  let cell = ref 17 in
  Metrics.gauge m "cell" (fun () -> !cell);
  let h = Metrics.histogram m "lat_ns" in
  Metrics.observe h 100.0;
  Metrics.observe h 3.0;
  let s = Metrics.snapshot m in
  check Alcotest.int "gauge read at snapshot" 17 (List.assoc "cell" s.Metrics.gauges);
  cell := 18;
  let s2 = Metrics.snapshot m in
  check Alcotest.int "gauge re-read" 18 (List.assoc "cell" s2.Metrics.gauges);
  let hist = List.assoc "lat_ns" s.Metrics.hists in
  check Alcotest.int "hist count" 2 (Zmsq_util.Stats.Histogram.count hist)

let test_merge () =
  let m1 = Metrics.create ~name:"x" () and m2 = Metrics.create ~name:"y" () in
  Metrics.add (Metrics.counter m1 "n") 5;
  Metrics.add (Metrics.counter m2 "n") 7;
  Metrics.observe (Metrics.histogram m1 "h") 10.0;
  Metrics.observe (Metrics.histogram m2 "h") 20.0;
  let s = Metrics.merge (Metrics.snapshot m1) (Metrics.snapshot m2) in
  check Alcotest.int "counters sum" 12 (List.assoc "n" s.Metrics.counters);
  check Alcotest.int "hists merge" 2
    (Zmsq_util.Stats.Histogram.count (List.assoc "h" s.Metrics.hists))

(* {2 Agreement with the legacy Debug.counters view} *)

module Q = Zmsq.Default

let run_mixed q ~threads ~per =
  let ds =
    List.init threads (fun i ->
        Domain.spawn (fun () ->
            let h = Q.register q in
            let rng = Zmsq_util.Rng.create ~seed:(0x0B5 + i) () in
            for _ = 1 to per do
              if Zmsq_util.Rng.int rng 1000 < 550 then
                Q.insert h (Zmsq_pq.Elt.of_priority (Zmsq_util.Rng.int rng 1_000_000))
              else ignore (Q.extract h)
            done))
  in
  List.iter Domain.join ds

let test_debug_counters_match_snapshot () =
  let q = Q.create () in
  run_mixed q ~threads:4 ~per:20_000;
  let d = Q.Debug.counters q in
  let s = Metrics.snapshot (Q.metrics q) in
  let v name = List.assoc name s.Metrics.counters in
  check Alcotest.int "refills" d.Zmsq.refills (v "refills_total");
  check Alcotest.int "splits" d.Zmsq.splits (v "splits_total");
  check Alcotest.int "forced_inserts" d.Zmsq.forced_inserts (v "forced_inserts_total");
  check Alcotest.int "min_swaps" d.Zmsq.min_swaps (v "min_swaps_total");
  check Alcotest.int "insert_retries" d.Zmsq.insert_retries (v "insert_retries_total");
  check Alcotest.int "expands" d.Zmsq.expands (v "expands_total");
  check Alcotest.int "swap_downs" d.Zmsq.swap_downs (v "swap_downs_total");
  check Alcotest.bool "workload exercised counters" true (v "refills_total" > 0)

let test_obs_off_is_inert () =
  let q = Q.create ~params:(Zmsq.Params.with_obs Zmsq_obs.Level.Off Zmsq.Params.default) () in
  run_mixed q ~threads:2 ~per:5_000;
  let s = Metrics.snapshot (Q.metrics q) in
  List.iter
    (fun (name, v) -> check Alcotest.int (name ^ " stays 0") 0 v)
    s.Metrics.counters;
  check Alcotest.bool "no trace ring" true (Q.trace q = None)

(* {2 Trace} *)

let test_trace_full_level () =
  let q = Q.create ~params:(Zmsq.Params.with_obs Zmsq_obs.Level.Full Zmsq.Params.default) () in
  run_mixed q ~threads:2 ~per:2_000;
  match Q.trace q with
  | None -> Alcotest.fail "Full level must allocate a trace ring"
  | Some tr ->
      check Alcotest.bool "events recorded" true (Trace.recorded tr > 0);
      let json = Trace.to_chrome_json tr in
      check Alcotest.bool "has traceEvents" true
        (Astring.String.is_infix ~affix:"\"traceEvents\"" json);
      check Alcotest.bool "has complete events" true
        (Astring.String.is_infix ~affix:"\"ph\":\"X\"" json);
      (* Latency histograms fill at Full. *)
      let s = Metrics.snapshot (Q.metrics q) in
      let ins = List.assoc "insert_ns" s.Metrics.hists in
      check Alcotest.bool "insert_ns populated" true (Zmsq_util.Stats.Histogram.count ins > 0)

let test_trace_span_balance () =
  let tr = Trace.create ~capacity:16 () in
  Trace.span_begin tr Trace.Insert;
  Trace.span_end tr Trace.Insert;
  Trace.instant tr ~arg:3 Trace.Refill;
  check Alcotest.int "two events" 2 (Trace.recorded tr);
  (* Overfill: ring keeps the trailing window, counts the overwrites. *)
  for _ = 1 to 100 do
    Trace.instant tr Trace.Split
  done;
  check Alcotest.bool "bounded" true (Trace.recorded tr <= 16);
  check Alcotest.bool "dropped counted" true (Trace.dropped tr > 0)

(* Every kind survives [kind_code]/[kind_of_code], and the decoder refuses
   the codes that name no kind — the retired 7 and 15 included — instead of
   reading them as some other kind. *)
let test_trace_kind_codes () =
  let decoded =
    List.filter_map
      (fun c ->
        match Trace.kind_of_code c with
        | k -> Some (c, k)
        | exception Invalid_argument _ -> None)
      (List.init 64 (fun c -> c - 1))
  in
  check Alcotest.(list int) "decodable codes"
    (List.filter (fun c -> c <> 7) (List.init 15 Fun.id) @ [ 16; 17 ])
    (List.map fst decoded);
  List.iter
    (fun (c, k) ->
      check Alcotest.int (Trace.kind_name k ^ " round-trips") c (Trace.kind_code k))
    decoded;
  let names = List.sort_uniq compare (List.map (fun (_, k) -> Trace.kind_name k) decoded) in
  check Alcotest.int "distinct names" (List.length decoded) (List.length names)

(* {2 Export formats} *)

let demo_snapshot () =
  let m = Metrics.create ~name:"demo" () in
  Metrics.add (Metrics.counter m "ops_total") 42;
  Metrics.gauge m "size" (fun () -> 7);
  Metrics.observe (Metrics.histogram m "lat_ns") 100.0;
  Metrics.snapshot m

let test_prometheus_format () =
  let text = Export.prometheus (demo_snapshot ()) in
  let has affix = Astring.String.is_infix ~affix text in
  check Alcotest.bool "counter type line" true (has "# TYPE zmsq_ops_total counter");
  check Alcotest.bool "counter sample" true (has "zmsq_ops_total 42");
  check Alcotest.bool "gauge sample" true (has "zmsq_size 7");
  check Alcotest.bool "histogram +Inf bucket" true (has "zmsq_lat_ns_bucket{le=\"+Inf\"} 1");
  check Alcotest.bool "histogram count" true (has "zmsq_lat_ns_count 1")

let test_jsonl_line () =
  let line = Export.jsonl_line (demo_snapshot ()) in
  check Alcotest.bool "single line" true (not (String.contains line '\n'));
  check Alcotest.bool "object" true
    (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
  check Alcotest.bool "has counters" true
    (Astring.String.is_infix ~affix:"\"ops_total\":42" line)

let test_json_escaping () =
  check Alcotest.string "escape" "\"a\\\"b\\n\"" (Json.to_string (Json.Str "a\"b\n"));
  check Alcotest.string "nan to null" "null" (Json.to_string (Json.Float Float.nan))

(* {2 Table.save_json} *)

let test_table_save_json () =
  let dir = Filename.temp_file "zmsq_obs" "" in
  Sys.remove dir;
  let t =
    Zmsq_harness.Table.make ~id:"unit_json" ~title:"demo" ~header:[ "threads"; "mops" ]
      [ [ "1"; "3.5" ]; [ "4"; "0.4" ] ]
  in
  let path = Zmsq_harness.Table.save_json ~dir t in
  check Alcotest.bool "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  check Alcotest.bool "id serialized" true
    (Astring.String.is_infix ~affix:"\"id\":\"unit_json\"" body);
  check Alcotest.bool "int cell typed" true (Astring.String.is_infix ~affix:"1" body);
  Sys.remove path;
  Sys.rmdir dir

(* {2 PR 6: tail accessors, parser, global snapshot, QoS sampling} *)

module Hist = Zmsq_util.Stats.Histogram

let test_hist_p999_max () =
  let h = Hist.create () in
  check (Alcotest.float 0.0) "empty max" 0.0 (Hist.max_value h);
  Hist.add h 3.0;
  Hist.add h 1000.0;
  Hist.add h 5.0;
  check (Alcotest.float 0.0) "exact max" 1000.0 (Hist.max_value h);
  (* p999 is the bucket upper bound of the largest sample: 1000 < 1024. *)
  check (Alcotest.float 0.0) "p999 bucket bound" 1024.0 (Hist.p999 h);
  let h2 = Hist.create () in
  Hist.add h2 7.0;
  let m = Hist.merge h h2 in
  check (Alcotest.float 0.0) "merge keeps max" 1000.0 (Hist.max_value m)

let test_global_snapshot_monotone () =
  (* The process-wide merge must stay monotone per counter name while
     writers are live on one of the merged registries. *)
  let m = Metrics.create ~name:"gsm" () in
  let c = Metrics.counter m "gsm_total" in
  let stop = Atomic.make false in
  let ds =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Metrics.incr c
            done))
  in
  let last = ref 0 in
  for _ = 1 to 200 do
    let s = Metrics.global_snapshot () in
    let v = try List.assoc "gsm_total" s.Metrics.counters with Not_found -> 0 in
    if v < !last then Alcotest.fail "global_snapshot counter went backwards";
    last := v
  done;
  Atomic.set stop true;
  List.iter Domain.join ds;
  check Alcotest.bool "saw progress" true (!last > 0)

let test_jsonl_wellformed () =
  (* Every exported line must parse as a single JSON object, and the
     capture timestamps must be monotone across successive lines. *)
  let m = Metrics.create ~name:"jl" () in
  let c = Metrics.counter m "jl_total" in
  let h = Metrics.histogram m "jl_ns" in
  let lines =
    List.init 20 (fun i ->
        Metrics.add c (i + 1);
        Metrics.observe h (float_of_int (100 * (i + 1)));
        Export.jsonl_line (Metrics.snapshot m))
  in
  let last_ts = ref min_int in
  List.iter
    (fun line ->
      check Alcotest.bool "single line" true (not (String.contains line '\n'));
      match Json.of_string line with
      | Error msg -> Alcotest.fail ("jsonl line does not parse: " ^ msg)
      | Ok doc -> (
          match Option.bind (Json.member "taken_ns" doc) Json.to_int_opt with
          | None -> Alcotest.fail "jsonl line lacks taken_ns"
          | Some ts ->
              check Alcotest.bool "taken_ns monotone" true (ts >= !last_ts);
              last_ts := ts))
    lines

let test_json_parser () =
  let roundtrip s =
    match Json.of_string s with
    | Ok doc -> Json.to_string doc
    | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  in
  check Alcotest.string "object" "{\"a\":1,\"b\":[true,null,-2.5]}"
    (roundtrip " { \"a\" : 1 , \"b\" : [ true , null , -2.5 ] } ");
  check Alcotest.string "escapes" "\"x\\\"y\\n\"" (roundtrip "\"x\\\"y\\n\"");
  (match Json.of_string "\"\\u0041\"" with
  | Ok (Json.Str "A") -> ()
  | _ -> Alcotest.fail "\\u0041 must decode to A");
  (match Json.of_string "{\"k\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be rejected");
  (match Json.of_string "[1,2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated array must be rejected");
  (* Accessors used by the perf-CI baseline loader. *)
  let doc = Json.of_string_exn "{\"v\": 2.5, \"n\": 3, \"s\": \"x\", \"l\": [1]}" in
  check (Alcotest.option (Alcotest.float 0.0)) "float member" (Some 2.5)
    (Option.bind (Json.member "v" doc) Json.to_float_opt);
  check (Alcotest.option (Alcotest.float 0.0)) "int as float" (Some 3.0)
    (Option.bind (Json.member "n" doc) Json.to_float_opt);
  check (Alcotest.option Alcotest.string) "string member" (Some "x")
    (Option.bind (Json.member "s" doc) Json.to_string_opt);
  check Alcotest.bool "list member" true
    (Option.bind (Json.member "l" doc) Json.to_list_opt <> None)

let test_json_int_boundaries () =
  (* The perf-CI baseline loader reads counters through [to_int_opt]; a
     63-bit boundary integer must survive a to_string/of_string round
     trip exactly, and a literal one past the boundary must be a loud
     parse error — never silently rounded through float. *)
  let roundtrip n =
    match Json.of_string (Json.to_string (Json.Int n)) with
    | Ok (Json.Int m) when m = n -> ()
    | Ok j -> Alcotest.fail (Printf.sprintf "%d re-parsed as %s" n (Json.to_string j))
    | Error msg -> Alcotest.fail (Printf.sprintf "%d failed to parse: %s" n msg)
  in
  roundtrip max_int;
  roundtrip min_int;
  roundtrip 0;
  (* max_int + 1 = 4611686018427387904 on 64-bit OCaml *)
  (match Json.of_string "4611686018427387904" with
  | Error msg ->
      check Alcotest.bool "overflow error mentions the cause" true
        (Astring.String.is_infix ~affix:"overflow" msg)
  | Ok j ->
      Alcotest.fail ("overflowing literal accepted as " ^ Json.to_string j));
  (match Json.of_string "-4611686018427387905" with
  | Error _ -> ()
  | Ok j ->
      Alcotest.fail ("underflowing literal accepted as " ^ Json.to_string j));
  (* A fractional literal at the same magnitude is still a float. *)
  match Json.of_string "4611686018427387904.0" with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "fractional literal must still parse as a float"

let test_json_unicode_roundtrip () =
  (* The wire protocol's error payloads and the server's JSON stats
     endpoint ship arbitrary strings; escaping must emit pure-ASCII
     \uXXXX (surrogate pairs above the BMP) and round-trip through the
     parser byte-for-byte. *)
  let is_ascii s = String.for_all (fun c -> Char.code c < 0x80) s in
  let roundtrip label s =
    let doc = Json.to_string (Json.Str s) in
    check Alcotest.bool (label ^ " escaped output is ASCII") true (is_ascii doc);
    match Json.of_string doc with
    | Ok (Json.Str s') -> check Alcotest.string (label ^ " round-trips") s s'
    | Ok j -> Alcotest.fail (label ^ " re-parsed as " ^ Json.to_string j)
    | Error msg -> Alcotest.fail (label ^ " failed to parse: " ^ msg)
  in
  roundtrip "2-byte (é)" "caf\xc3\xa9";
  roundtrip "3-byte (€)" "price \xe2\x82\xac 5";
  roundtrip "4-byte astral (😀)" "emoji \xf0\x9f\x98\x80!";
  roundtrip "mixed" "a\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80z\n\t\"";
  check Alcotest.string "surrogate pair form" "\\ud83d\\ude00"
    (Json.escape "\xf0\x9f\x98\x80");
  check Alcotest.string "BMP form" "\\u20ac" (Json.escape "\xe2\x82\xac");
  (* Malformed UTF-8 must not leak raw bytes: each bad byte becomes
     U+FFFD, and the result still parses. *)
  let bad = Json.to_string (Json.Str "a\xc3b\xff") in
  check Alcotest.bool "malformed input escapes to ASCII" true (is_ascii bad);
  (match Json.of_string bad with
  | Ok (Json.Str s) ->
      check Alcotest.bool "replacement chars present" true
        (Astring.String.is_infix ~affix:"\xef\xbf\xbd" s)
  | _ -> Alcotest.fail "escaped malformed input must re-parse");
  (* Parser strictness: surrogate halves must pair up; stray halves and
     non-hex (incl. underscores, which int_of_string would take) are
     loud errors. *)
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str "\xf0\x9f\x98\x80") -> ()
  | Ok j -> Alcotest.fail ("surrogate pair decoded as " ^ Json.to_string j)
  | Error msg -> Alcotest.fail ("surrogate pair rejected: " ^ msg));
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok j -> Alcotest.fail (s ^ " accepted as " ^ Json.to_string j))
    [ "\"\\ud83d\""; "\"\\ud83dx\""; "\"\\ude00\""; "\"\\ud83d\\u0041\""; "\"\\u1_2a\"" ]

let test_prometheus_help_sanitize () =
  let m = Metrics.create ~name:"ph" () in
  Metrics.add (Metrics.counter m "qos_samples_total") 3;
  Metrics.observe (Metrics.histogram m "lat.ns-odd") 10.0;
  let text = Export.prometheus (Metrics.snapshot m) in
  let has affix = Astring.String.is_infix ~affix text in
  check Alcotest.bool "HELP for known counter" true
    (has "# HELP zmsq_qos_samples_total");
  check Alcotest.bool "TYPE counter" true (has "# TYPE zmsq_qos_samples_total counter");
  check Alcotest.bool "TYPE histogram" true (has "# TYPE zmsq_lat_ns_odd histogram");
  check Alcotest.bool "odd chars sanitized" true (has "zmsq_lat_ns_odd_bucket");
  check Alcotest.bool "no raw dot name" true (not (has "zmsq_lat.ns-odd"))

let test_trace_complete_and_dropped () =
  let tr = Trace.create ~capacity:16 () in
  let t0 = Zmsq_util.Timing.now_ns () in
  Trace.complete tr ~arg:5 ~t0 Trace.Drain;
  check Alcotest.int "complete records one event" 1 (Trace.recorded tr);
  (* Unbalanced span_end discards the open span and accounts for it. *)
  Trace.span_begin tr Trace.Insert;
  Trace.span_end tr Trace.Refill;
  check Alcotest.int "unbalanced span counted as dropped" 1 (Trace.dropped tr);
  let json = Trace.to_chrome_json tr in
  let has affix = Astring.String.is_infix ~affix json in
  check Alcotest.bool "drain span in dump" true (has "\"name\":\"drain\"");
  check Alcotest.bool "dropped_events_total in otherData" true
    (has "\"dropped_events_total\":1")

let test_qos_sampling_single_thread () =
  (* Shift 0 samples every operation; a lone handle's rank-error proxy
     must stay within the structural window batch + 1*buffer_len. *)
  let params =
    Zmsq.Params.default
    |> Zmsq.Params.with_obs Zmsq_obs.Level.Full
    |> Zmsq.Params.with_obs_sample 0
  in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Zmsq_util.Rng.create ~seed:42 () in
  let n = 5_000 in
  for _ = 1 to n do
    Q.insert h (Zmsq_pq.Elt.of_priority (Zmsq_util.Rng.int rng 1_000_000))
  done;
  Q.flush h;
  let extracted = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if Zmsq_pq.Elt.is_none (Q.extract h) then continue_ := false
    else incr extracted
  done;
  Q.unregister h;
  check Alcotest.int "all extracted" n !extracted;
  let s = Metrics.snapshot (Q.metrics q) in
  let counter name = try List.assoc name s.Metrics.counters with Not_found -> 0 in
  check Alcotest.int "every extract sampled" n (counter "qos_samples_total");
  let rank_err = List.assoc "rank_error_sampled" s.Metrics.hists in
  check Alcotest.int "rank error per sample" n (Hist.count rank_err);
  let bound = params.Zmsq.Params.batch + params.Zmsq.Params.buffer_len in
  check Alcotest.bool "rank error within relaxation bound" true
    (Hist.max_value rank_err <= float_of_int bound);
  let gap = List.assoc "rank_gap_keys" s.Metrics.hists in
  check Alcotest.int "rank gap per sample" n (Hist.count gap);
  let sojourn = List.assoc "sojourn_ns" s.Metrics.hists in
  check Alcotest.bool "sojourn probes landed" true (Hist.count sojourn > 0);
  check Alcotest.bool "staleness gauge present" true
    (List.mem_assoc "staleness_ns" s.Metrics.gauges)

let test_params_obs_sample_validate () =
  let p = Zmsq.Params.with_obs_sample 0 Zmsq.Params.default in
  check Alcotest.int "shift 0 accepted" 0 p.Zmsq.Params.obs_sample_shift;
  let rejects shift =
    match Zmsq.Params.with_obs_sample shift Zmsq.Params.default with
    | _ -> Alcotest.fail (Printf.sprintf "shift %d must be rejected" shift)
    | exception Invalid_argument _ -> ()
  in
  rejects (-1);
  rejects 31

let suite =
  [
    ("counter exact across domains", `Quick, test_counter_exact_multidomain);
    ("snapshot monotone under load", `Quick, test_snapshot_monotone_under_load);
    ("gauge + histogram snapshot", `Quick, test_gauge_and_histogram);
    ("snapshot merge", `Quick, test_merge);
    ("Debug.counters == snapshot", `Quick, test_debug_counters_match_snapshot);
    ("obs off is inert", `Quick, test_obs_off_is_inert);
    ("trace at Full level", `Quick, test_trace_full_level);
    ("trace span balance + ring bound", `Quick, test_trace_span_balance);
    ("trace kind codes round-trip", `Quick, test_trace_kind_codes);
    ("prometheus exposition", `Quick, test_prometheus_format);
    ("jsonl line", `Quick, test_jsonl_line);
    ("json escaping", `Quick, test_json_escaping);
    ("table save_json", `Quick, test_table_save_json);
    ("histogram p999 + max", `Quick, test_hist_p999_max);
    ("global snapshot monotone", `Quick, test_global_snapshot_monotone);
    ("jsonl lines well-formed", `Quick, test_jsonl_wellformed);
    ("json parser", `Quick, test_json_parser);
    ("json 63-bit int boundaries", `Quick, test_json_int_boundaries);
    ("json unicode round-trip", `Quick, test_json_unicode_roundtrip);
    ("prometheus HELP/TYPE + sanitize", `Quick, test_prometheus_help_sanitize);
    ("trace complete + dropped", `Quick, test_trace_complete_and_dropped);
    ("qos sampling single thread", `Quick, test_qos_sampling_single_thread);
    ("params obs_sample validation", `Quick, test_params_obs_sample_validate);
  ]

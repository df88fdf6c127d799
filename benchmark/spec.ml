(* The metric vocabulary. BENCHMARK.json lists the same names and units;
   a test keeps the two in step.

   Every workload reports every metric, because BENCHMARK.json gates
   each (workload, metric) pair. The end-to-end metrics are therefore the ones
   all four workloads have: set-up time, the median and p90 latency of
   the workload's unit of work, and peak memory. A per-layer metric of a
   layer the workload never calls reads 0 there, and no time-valued
   per-layer metric is of that kind. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Why each workload exists: README.md and BENCHMARK.json. *)
let workloads = [ "steady_mixed"; "handoff"; "sssp"; "rpc_ramp" ]

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "p50_us" "us" Lower;
    m "p90_us" "us" Lower;
    m "peak_rss_mb" "MiB" Lower;
  ]

let per_layer =
  [
    m "core.insert_p50_ns" "ns" Lower;
    m "core.insert_p99_ns" "ns" Lower;
    m "core.extract_p50_ns" "ns" Lower;
    m "core.extract_p99_ns" "ns" Lower;
    m "core.refills_per_kext" "per_kext" Lower;
    m "core.insert_retries_per_kins" "per_kins" Lower;
    m "core.splits_per_kins" "per_kins" Lower;
    m "core.swap_downs_per_kins" "per_kins" Lower;
    m "core.leaf_level" "count" Lower;
    m "core.empty_extract_pct" "%" Lower;
    m "sync.sleeps_per_kext" "per_kext" Lower;
    m "sync.wakes_per_kext" "per_kext" Lower;
    m "hp.scans_per_kop" "per_kop" Lower;
    m "hp.recycled_per_kop" "per_kop" Higher;
    m "app.queue_share_pct" "%" Lower;
    m "quality.topk_pct" "%" Higher;
    m "quality.reexpand_pct" "%" Lower;
    m "net.codec_pct" "%" Lower;
    m "net.residual_pct" "%" Lower;
    m "net.throttled_pct" "%" Lower;
    m "net.max_ladder_level" "count" Lower;
    m "net.max_rate_rps" "1/s" Higher;
    m "bench.gen_lag_pct" "%" Lower;
    m "bench.trace_overhead_pct" "%" Lower;
    m "tail.p99_us" "us" Lower;
    m "tail.p999_us" "us" Lower;
  ]

let find name = List.find (fun x -> x.name = name) (end_to_end @ per_layer)

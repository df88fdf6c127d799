(* Fixed-shape, fixed-seed performance runs for the per-PR regression CI
   (ROADMAP item 3). Each experiment produces one scalar headline metric;
   the suite is compared against a committed baseline
   ([results/perf-baseline.json]) with generous per-experiment thresholds
   sized for shared-runner noise, not for micro-regressions. *)

module Json = Zmsq_obs.Json
module Elt = Zmsq_pq.Elt
module Keys = Zmsq_dist.Keys
module Timing = Zmsq_util.Timing
module P = Zmsq.Params

let schema = "zmsq-perfci/1"

type result = {
  id : string;
  value : float;
  unit_ : string;
  higher_better : bool;
  threshold_pct : float;
  limit : float option;
  wall_seconds : float;
  details : (string * Json.t) list;
}

type comparison = {
  cmp_id : string;
  cmp_value : float;
  cmp_baseline : float option; (* None: experiment absent from the baseline *)
  cmp_delta_pct : float option;
  cmp_threshold_pct : float;
  cmp_ok : bool;
}

type exp = {
  e_id : string;
  e_title : string;
  e_unit : string;
  e_higher_better : bool;
  e_threshold_pct : float;
  e_limit : float option;
  e_run : scale:float -> float * (string * Json.t) list;
}

(* {2 Workload shapes}

   Shapes follow the registry experiments they mirror (fig5a, the
   buffer sweep) but with pinned seeds, pinned thread counts and op counts
   small enough for a CI push job. [scale] multiplies op counts only. *)

let threads () = Zmsq_util.Env.int "ZMSQ_PERFCI_THREADS" ~default:4

let ops scale base = max 1_000 (int_of_float (float_of_int base *. scale))

let insert_spec ~scale ~threads ~total =
  {
    Throughput.total_ops = ops scale total;
    insert_permil = 1000;
    preload = 0;
    keys = Keys.Uniform { bits = 20 };
    threads;
    seed = 0x5EED;
  }

let fig5a_run ~scale =
  let t = threads () in
  let spec = insert_spec ~scale ~threads:t ~total:400_000 in
  let mops = Throughput.run_avg ~repeats:3 (Instances.zmsq ()) spec in
  (mops, [ ("threads", Json.Int t); ("total_ops", Json.Int spec.Throughput.total_ops) ])

let buffer_run ~scale =
  let t = threads () in
  let spec = insert_spec ~scale ~threads:t ~total:400_000 in
  let params = P.(default |> with_batch 48 |> with_target_len 72 |> with_buffer_len 64) in
  let mops = Throughput.run_avg ~repeats:3 (Instances.zmsq ~params ()) spec in
  ( mops,
    [
      ("threads", Json.Int t);
      ("total_ops", Json.Int spec.Throughput.total_ops);
      ("buffer_len", Json.Int 64);
    ] )

(* Sharded insert-heavy throughput (the ISSUE-8 gate): shards=4 with
   sticky routing and per-handle buffering on a 90/10 insert/extract mix
   over a preloaded queue, plus the speedup over the single-shard
   buffered build measured back-to-back in the same process (same
   ambient noise), floored at 1.5x. The extract leg is what the floor
   leans on: every single-queue extraction funnels through the one root
   lock, while the sharded build spreads it across shard roots via
   two-choice selection — a serialization win that survives even a
   single-core runner, where a preempted root-lock holder stalls every
   spinning extractor for a full timeslice. *)
let shard_params ~shards =
  P.(
    default |> with_batch 48 |> with_target_len 72 |> with_buffer_len 64
    |> with_shards shards)

let shard_spec ~scale ~threads =
  {
    Throughput.total_ops = ops scale 400_000;
    insert_permil = 900;
    preload = 100_000;
    keys = Keys.Uniform { bits = 20 };
    threads;
    seed = 0x5EED;
  }

let shard_run ~scale =
  let t = threads () in
  let spec = shard_spec ~scale ~threads:t in
  let mops =
    Throughput.run_avg ~repeats:3 (Instances.zmsq_shard ~params:(shard_params ~shards:4) ()) spec
  in
  ( mops,
    [
      ("threads", Json.Int t);
      ("total_ops", Json.Int spec.Throughput.total_ops);
      ("insert_permil", Json.Int 900);
      ("preload", Json.Int spec.Throughput.preload);
      ("shards", Json.Int 4);
      ("buffer_len", Json.Int 64);
    ] )

let shard_speedup_run ~scale =
  let t = threads () in
  let spec = shard_spec ~scale ~threads:t in
  (* Interleaved best-of pairs, like [overhead_run]: a background spike
     must hit every run of one side to skew the ratio. *)
  let single = ref 0.0 and sharded = ref 0.0 in
  for _ = 1 to 3 do
    let s1 = Throughput.run (Instances.zmsq ~params:(shard_params ~shards:1) ()) spec in
    let s4 = Throughput.run (Instances.zmsq_shard ~params:(shard_params ~shards:4) ()) spec in
    if s1 > !single then single := s1;
    if s4 > !sharded then sharded := s4
  done;
  ( !sharded /. !single,
    [
      ("threads", Json.Int t);
      ("total_ops", Json.Int spec.Throughput.total_ops);
      ("insert_permil", Json.Int 900);
      ("preload", Json.Int spec.Throughput.preload);
      ("single_shard_mops", Json.Float !single);
      ("sharded_mops", Json.Float !sharded);
    ] )

(* Single-thread roofline: ns per steady-state insert+extract pair on a
   10K-element queue, ZMSQ (via its concurrent API) over [Binary_heap]
   (the sequential reference). The *ratio* is the gated metric — absolute
   nanoseconds track machine speed, the ratio tracks only our overhead. *)
let roofline_run ~scale =
  let qsize = 10_000 and pairs = ops scale 200_000 in
  let keys seed = Keys.make (Zmsq_util.Rng.create ~seed ()) (Keys.Uniform { bits = 20 }) in
  let zmsq_ns =
    let module Q = Zmsq.Default in
    let q = Q.create ~params:P.default () in
    let h = Q.register q in
    let g = keys 0x0F1 in
    for _ = 1 to qsize do
      Q.insert h (Elt.of_priority (Keys.next g))
    done;
    let t0 = Timing.now_ns () in
    for _ = 1 to pairs do
      Q.insert h (Elt.of_priority (Keys.next g));
      ignore (Q.extract h)
    done;
    let dt = Timing.now_ns () - t0 in
    Q.unregister h;
    float_of_int dt /. float_of_int pairs
  in
  let heap_ns =
    let module B = Zmsq_pq.Binary_heap in
    let b = B.create () in
    let g = keys 0x0F1 in
    for _ = 1 to qsize do
      B.insert b (Elt.of_priority (Keys.next g))
    done;
    let t0 = Timing.now_ns () in
    for _ = 1 to pairs do
      B.insert b (Elt.of_priority (Keys.next g));
      ignore (B.extract_max b)
    done;
    let dt = Timing.now_ns () - t0 in
    float_of_int dt /. float_of_int pairs
  in
  ( zmsq_ns /. heap_ns,
    [
      ("pairs", Json.Int pairs);
      ("qsize", Json.Int qsize);
      ("zmsq_pair_ns", Json.Float zmsq_ns);
      ("heap_pair_ns", Json.Float heap_ns);
    ] )

(* Full-observability overhead on the fig5a shape: percent throughput lost
   going from [Counters] to [Full] with the default 1/256 QoS sampling.
   The acceptance bound is <= 5%. Run single-threaded — with more threads
   than cores the scheduler's noise dwarfs the instrumentation's — with
   the two modes interleaved and each side keeping its best run, so a
   background spike must hit every run of one mode to skew the figure. *)
let overhead_run ~scale =
  let spec = insert_spec ~scale ~threads:1 ~total:200_000 in
  let run level =
    let params = P.default |> P.with_obs level |> P.with_obs_sample 8 in
    Throughput.run (Instances.zmsq ~params ()) spec
  in
  (* One throwaway pair first: the process's first runs pay heap growth
     and page faults that would otherwise land on Counters only. *)
  ignore (run Zmsq_obs.Level.Counters);
  ignore (run Zmsq_obs.Level.Full);
  (* Adjacent runs share ambient noise (GC phase, scheduler), so the
     per-pair ratio is far more stable than any cross-run aggregate; the
     median across pairs then discards the pairs a background spike did
     split. *)
  let pairs = 7 in
  let pcts = Array.make pairs 0.0 in
  let counters = ref 0.0 and full = ref 0.0 in
  for i = 0 to pairs - 1 do
    let c = run Zmsq_obs.Level.Counters in
    let f = run Zmsq_obs.Level.Full in
    if c > !counters then counters := c;
    if f > !full then full := f;
    pcts.(i) <- (c -. f) /. c *. 100.0
  done;
  Array.sort Float.compare pcts;
  let pct = pcts.(pairs / 2) in
  let counters = !counters and full = !full in
  ( pct,
    [
      ("threads", Json.Int 1);
      ("total_ops", Json.Int spec.Throughput.total_ops);
      ("counters_mops", Json.Float counters);
      ("full_mops", Json.Float full);
      ("sample_shift", Json.Int 8);
    ] )

let experiments =
  [
    {
      e_id = "fig5a_mops";
      e_title = "100% inserts, uniform keys (fig5a shape)";
      e_unit = "Mops/s";
      e_higher_better = true;
      e_threshold_pct = 35.0;
      e_limit = None;
      e_run = fig5a_run;
    };
    {
      e_id = "buffer_insert_mops";
      e_title = "100% inserts with buf=64 (buffer-experiment shape)";
      e_unit = "Mops/s";
      e_higher_better = true;
      e_threshold_pct = 35.0;
      e_limit = None;
      e_run = buffer_run;
    };
    {
      e_id = "shard_insert_mops";
      e_title = "90% inserts over preload, shards=4 buf=64 (sharded build)";
      e_unit = "Mops/s";
      e_higher_better = true;
      e_threshold_pct = 35.0;
      e_limit = None;
      e_run = shard_run;
    };
    {
      e_id = "shard_speedup_ratio";
      e_title = "sharded / single-shard buffered insert-heavy throughput";
      e_unit = "ratio";
      e_higher_better = true;
      e_threshold_pct = 25.0;
      e_limit =
        (* Floor, not cap ([higher_better] flips the limit's direction):
           sharding must stay >= 1.5x the single-shard buffered build. *)
        Some
          (float_of_int (Zmsq_util.Env.int "ZMSQ_PERFCI_SHARD_SPEEDUP_FLOOR_X10" ~default:15)
          /. 10.0);
      e_run = shard_speedup_run;
    };
    {
      e_id = "roofline_pair_ratio";
      e_title = "single-thread pair latency: zmsq / Binary_heap";
      e_unit = "ratio";
      e_higher_better = false;
      e_threshold_pct = 50.0;
      e_limit = None;
      e_run = roofline_run;
    };
    {
      e_id = "obs_full_overhead_pct";
      e_title = "ZMSQ_OBS=full (1/256 sampling) overhead vs counters";
      e_unit = "%";
      e_higher_better = false;
      (* Gated by the absolute limit, not the baseline: a relative gate on
         a small percentage is all noise (a 1.7% -> 4.4% wobble is a +157%
         "regression" while comfortably under the 5% cap), so the baseline
         threshold is wide open and the limit below does the real work. *)
      e_threshold_pct = 1000.0;
      e_limit = Some (float_of_int (Zmsq_util.Env.int "ZMSQ_PERFCI_OVERHEAD_LIMIT" ~default:5));
      e_run = overhead_run;
    };
  ]

let experiment_ids () = List.map (fun e -> e.e_id) experiments

let run_all ?(only = fun _ -> true) ~scale () =
  List.filter_map
    (fun e ->
      if not (only e.e_id) then None
      else begin
        let t0 = Timing.now_ns () in
        let value, details = e.e_run ~scale in
        let wall = float_of_int (Timing.now_ns () - t0) /. 1e9 in
        Some
          {
            id = e.e_id;
            value;
            unit_ = e.e_unit;
            higher_better = e.e_higher_better;
            threshold_pct = e.e_threshold_pct;
            limit = e.e_limit;
            wall_seconds = wall;
            details;
          }
      end)
    experiments

(* {2 Baseline comparison} *)

(* [results/perf-baseline.json] shape:
   {"schema": "zmsq-perfci/1",
    "experiments": [{"id": ..., "value": ..., "threshold_pct": ...}, ...]}
   A [threshold_pct] in the baseline overrides the experiment's default,
   so a known-noisy metric can be loosened without touching code. *)
let load_baseline path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "baseline %s not found" path)
  else begin
    let ic = open_in path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string body with
    | Error msg -> Error (Printf.sprintf "baseline %s: %s" path msg)
    | Ok doc -> (
        match Json.member "schema" doc with
        | Some (Json.Str s) when s = schema -> (
            match Option.bind (Json.member "experiments" doc) Json.to_list_opt with
            | None -> Error (Printf.sprintf "baseline %s: missing experiments array" path)
            | Some items ->
                Ok
                  (List.filter_map
                     (fun item ->
                       match
                         ( Option.bind (Json.member "id" item) Json.to_string_opt,
                           Option.bind (Json.member "value" item) Json.to_float_opt )
                       with
                       | Some id, Some value ->
                           let thr =
                             Option.bind (Json.member "threshold_pct" item) Json.to_float_opt
                           in
                           Some (id, value, thr)
                       | _ -> None)
                     items))
        | Some (Json.Str s) ->
            Error (Printf.sprintf "baseline %s: schema %s, want %s" path s schema)
        | _ -> Error (Printf.sprintf "baseline %s: missing schema" path))
  end

let compare_one baseline r =
  let entry = List.find_opt (fun (id, _, _) -> id = r.id) baseline in
  let threshold =
    match entry with Some (_, _, Some thr) -> thr | _ -> r.threshold_pct
  in
  let base = Option.map (fun (_, v, _) -> v) entry in
  let delta =
    match base with
    | Some b when Float.abs b > 1e-12 -> Some ((r.value -. b) /. Float.abs b *. 100.0)
    | _ -> None
  in
  let within_threshold =
    match delta with
    | None -> true (* no baseline or zero baseline: nothing to gate on *)
    | Some d -> if r.higher_better then d >= -.threshold else d <= threshold
  in
  (* The limit follows the metric's direction: a cap for lower-is-better
     metrics (the <= 5% obs overhead), a floor for higher-is-better ones
     (the >= 1.5x shard speedup). *)
  let within_limit =
    match r.limit with
    | None -> true
    | Some lim -> if r.higher_better then r.value >= lim else r.value <= lim
  in
  {
    cmp_id = r.id;
    cmp_value = r.value;
    cmp_baseline = base;
    cmp_delta_pct = delta;
    cmp_threshold_pct = threshold;
    cmp_ok = within_threshold && within_limit;
  }

let compare_all baseline results = List.map (compare_one baseline) results

(* {2 Serialization} *)

let result_json r =
  Json.Obj
    ([
       ("id", Json.Str r.id);
       ("value", Json.Float r.value);
       ("unit", Json.Str r.unit_);
       ("higher_better", Json.Bool r.higher_better);
       ("threshold_pct", Json.Float r.threshold_pct);
       ("wall_seconds", Json.Float r.wall_seconds);
     ]
    @ (match r.limit with None -> [] | Some lim -> [ ("limit", Json.Float lim) ])
    @ [ ("details", Json.Obj r.details) ])

let comparison_json c =
  Json.Obj
    [
      ("id", Json.Str c.cmp_id);
      ("value", Json.Float c.cmp_value);
      ("baseline", match c.cmp_baseline with None -> Json.Null | Some v -> Json.Float v);
      ("delta_pct", match c.cmp_delta_pct with None -> Json.Null | Some v -> Json.Float v);
      ("threshold_pct", Json.Float c.cmp_threshold_pct);
      ("ok", Json.Bool c.cmp_ok);
    ]

let report_json ?(id = "pr6") ~scale ~baseline_file ~results ~comparisons () =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", Json.Str id);
      ("title", Json.Str "perf-regression CI: fixed-shape runs vs committed baseline");
      ("paper", Json.Str "A Practical, Scalable, Relaxed Priority Queue (ICPP 2019)");
      ("scale", Json.Float scale);
      ("experiments", Json.Arr (List.map result_json results));
      ( "comparison",
        match comparisons with
        | None -> Json.Null
        | Some cs ->
            Json.Obj
              [
                ("baseline_file", Json.Str baseline_file);
                ("results", Json.Arr (List.map comparison_json cs));
                ( "regressions",
                  Json.Int (List.length (List.filter (fun c -> not c.cmp_ok) cs)) );
              ] );
    ]

(* Per experiment, the run holding the median value (the lower middle one
   when the count is even), so its details stay consistent with it. *)
let median_results runs =
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun r0 ->
          let vals =
            List.sort
              (fun a b -> Float.compare a.value b.value)
              (List.filter_map (List.find_opt (fun r -> r.id = r0.id)) runs)
          in
          List.nth vals ((List.length vals - 1) / 2))
        first

let baseline_json ?(keep = []) results =
  let entry id value threshold_pct =
    Json.Obj
      [
        ("id", Json.Str id); ("value", Json.Float value); ("threshold_pct", Json.Float threshold_pct);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "experiments",
        Json.Arr
          (List.filter_map
             (fun e ->
               match List.find_opt (fun r -> r.id = e.e_id) results with
               | Some r -> Some (entry r.id r.value r.threshold_pct)
               | None -> (
                   match List.find_opt (fun (id, _, _) -> id = e.e_id) keep with
                   | Some (id, value, thr) ->
                       Some (entry id value (Option.value thr ~default:e.e_threshold_pct))
                   | None -> None))
             experiments) );
    ]

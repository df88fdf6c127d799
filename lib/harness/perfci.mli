(** Fixed-shape, fixed-seed performance experiments for the per-PR
    regression CI (driven by [bin/zmsq_perfci]).

    The suite runs a pinned subset of the registry's shapes — fig5a
    throughput, the insert-buffer experiment and the sharded
    insert-heavy gate — plus a single-thread roofline (ZMSQ
    vs {!Zmsq_pq.Binary_heap} pair latency, gated as a
    machine-independent ratio) and the full-observability overhead
    measurement. Results are compared against
    a committed baseline ([results/perf-baseline.json]) with generous
    per-experiment thresholds sized for shared-runner noise; the baseline
    may override any threshold. See OBSERVABILITY.md for the re-blessing
    workflow. Blocking-handoff and server RPC latency are not gated
    here: the repository benchmark's [handoff] and [rpc_ramp] workloads
    measure them with exact percentiles (benchmark/README.md). *)

val schema : string
(** Schema tag carried by both the report and the baseline
    ("zmsq-perfci/1"); comparison refuses a baseline with any other. *)

type result = {
  id : string;
  value : float;  (** the headline metric *)
  unit_ : string;
  higher_better : bool;
  threshold_pct : float;  (** default regression threshold *)
  limit : float option;  (** absolute cap, for limit-gated metrics *)
  wall_seconds : float;
  details : (string * Zmsq_obs.Json.t) list;
}

type comparison = {
  cmp_id : string;
  cmp_value : float;
  cmp_baseline : float option;  (** [None]: absent from the baseline *)
  cmp_delta_pct : float option;
  cmp_threshold_pct : float;  (** baseline override, or the default *)
  cmp_ok : bool;
}

val experiment_ids : unit -> string list

val run_all : ?only:(string -> bool) -> scale:float -> unit -> result list
(** Run the suite in order; [scale] multiplies op counts (1.0 = the CI
    push shape, nightly uses larger). [only] filters by experiment id. *)

val load_baseline : string -> ((string * float * float option) list, string) Stdlib.result
(** [(id, value, threshold_override)] triples from a baseline file;
    [Error] on missing file, parse failure, or schema mismatch. *)

val compare_all : (string * float * float option) list -> result list -> comparison list
(** An experiment regresses when its delta vs baseline exceeds the
    threshold in the harmful direction, or its value exceeds its absolute
    [limit]. Experiments missing from the baseline compare as ok (they
    gate only via [limit]). *)

val report_json :
  ?id:string ->
  scale:float ->
  baseline_file:string ->
  results:result list ->
  comparisons:comparison list option ->
  unit ->
  Zmsq_obs.Json.t
(** The schema-versioned BENCH_pr6.json document. [id] (default
    ["pr6"], the CI gate's identity) names trajectory snapshots like
    BENCH_pr9.json. *)

val median_results : result list list -> result list
(** Per experiment of the first run, the result whose value is the median
    over all runs (the lower middle one for an even count). *)

val baseline_json :
  ?keep:(string * float * float option) list -> result list -> Zmsq_obs.Json.t
(** A baseline blessing the given results, in suite order. An experiment
    without a result keeps its entry from [keep] (a loaded baseline), so
    blessing a subset leaves the other entries as they were. *)

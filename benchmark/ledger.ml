(* Per-layer metrics of a traced run, assembled in [Spec.per_layer] order.
   A workload fills what its layers produce; the rest stays 0. *)

(* A queue's counters at one instant ([Debug.counters],
   [Debug.hazard_domain_stats], [Debug.eventcount_stats]). *)
type snapshot = {
  c : Zmsq.counters;
  hp : (int * int * int) option;  (** retired, recycled, scans *)
  ec : (int * int) option;  (** sleeps, wakes *)
}

let snapshot (type a) (module Q : Zmsq.S with type t = a) (q : a) =
  { c = Q.Debug.counters q; hp = Q.Debug.hazard_domain_stats q; ec = Q.Debug.eventcount_stats q }

(* What a workload's queue calls did, as counts. *)
type work = {
  inserts : int;
  extracts : int;  (** extract calls, including empty ones *)
  empty : int;
  refills : int;
  insert_retries : int;
  splits : int;
  swap_downs : int;
  sleeps : int;
  wakes : int;
  hp_scans : int;
  hp_recycled : int;
}

let no_work =
  {
    inserts = 0;
    extracts = 0;
    empty = 0;
    refills = 0;
    insert_retries = 0;
    splits = 0;
    swap_downs = 0;
    sleeps = 0;
    wakes = 0;
    hp_scans = 0;
    hp_recycled = 0;
  }

(* Counter movement between two snapshots of one queue, plus the call
   counts the workload kept itself. *)
let work s0 s1 ~inserts ~extracts ~empty =
  let opt f a b = match (a, b) with Some a, Some b -> f b - f a | _ -> 0 in
  let d f = f s1.c - f s0.c in
  {
    inserts;
    extracts;
    empty;
    refills = d (fun c -> c.Zmsq.refills);
    insert_retries = d (fun c -> c.Zmsq.insert_retries);
    splits = d (fun c -> c.Zmsq.splits);
    swap_downs = d (fun c -> c.Zmsq.swap_downs);
    sleeps = opt fst s0.ec s1.ec;
    wakes = opt snd s0.ec s1.ec;
    hp_scans = opt (fun (_, _, s) -> s) s0.hp s1.hp;
    hp_recycled = opt (fun (_, r, _) -> r) s0.hp s1.hp;
  }

let add a b =
  {
    inserts = a.inserts + b.inserts;
    extracts = a.extracts + b.extracts;
    empty = a.empty + b.empty;
    refills = a.refills + b.refills;
    insert_retries = a.insert_retries + b.insert_retries;
    splits = a.splits + b.splits;
    swap_downs = a.swap_downs + b.swap_downs;
    sleeps = a.sleeps + b.sleeps;
    wakes = a.wakes + b.wakes;
    hp_scans = a.hp_scans + b.hp_scans;
    hp_recycled = a.hp_recycled + b.hp_recycled;
  }

type net = {
  codec_pct : float;
  residual_pct : float;
  throttled_pct : float;
  max_ladder_level : int;
  max_rate_rps : float;
}

type t = {
  recorders : Probe.recorder list;
  work : work;
  leaf_level : int;
  queue_share_pct : float;
  topk_pct : float;
  reexpand_pct : float;
  net : net option;
  gen_lag_pct : float;
  trace_overhead_pct : float;
  tail : Samples.summary;  (** the workload's untraced latency samples, ns *)
}

let pctl samples p =
  let sorted = Samples.sorted_of_list samples in
  if Array.length sorted = 0 then 0.0 else float_of_int (Samples.percentile sorted p)

let metrics l =
  let w = l.work in
  let ins = List.map (fun r -> r.Probe.ins) l.recorders in
  let ext = List.map (fun r -> r.Probe.ext) l.recorders in
  let ops = w.inserts + w.extracts in
  let net f = match l.net with Some n -> f n | None -> 0.0 in
  [
    ("core.insert_p50_ns", pctl ins 50.0);
    ("core.insert_p99_ns", pctl ins 99.0);
    ("core.extract_p50_ns", pctl ext 50.0);
    ("core.extract_p99_ns", pctl ext 99.0);
    ("core.refills_per_kext", Outcome.per_k w.refills w.extracts);
    ("core.insert_retries_per_kins", Outcome.per_k w.insert_retries w.inserts);
    ("core.splits_per_kins", Outcome.per_k w.splits w.inserts);
    ("core.swap_downs_per_kins", Outcome.per_k w.swap_downs w.inserts);
    ("core.leaf_level", float_of_int l.leaf_level);
    ("core.empty_extract_pct", Outcome.pct w.empty w.extracts);
    ("sync.sleeps_per_kext", Outcome.per_k w.sleeps w.extracts);
    ("sync.wakes_per_kext", Outcome.per_k w.wakes w.extracts);
    ("hp.scans_per_kop", Outcome.per_k w.hp_scans ops);
    ("hp.recycled_per_kop", Outcome.per_k w.hp_recycled ops);
    ("app.queue_share_pct", l.queue_share_pct);
    ("quality.topk_pct", l.topk_pct);
    ("quality.reexpand_pct", l.reexpand_pct);
    ("net.codec_pct", net (fun n -> n.codec_pct));
    ("net.residual_pct", net (fun n -> n.residual_pct));
    ("net.throttled_pct", net (fun n -> n.throttled_pct));
    ("net.max_ladder_level", net (fun n -> float_of_int n.max_ladder_level));
    ("net.max_rate_rps", net (fun n -> n.max_rate_rps));
    ("bench.gen_lag_pct", l.gen_lag_pct);
    ("bench.trace_overhead_pct", l.trace_overhead_pct);
    ("tail.p99_us", Outcome.us_of_ns l.tail.Samples.p99);
    ("tail.p999_us", Outcome.us_of_ns l.tail.Samples.p999);
  ]

(* Time inside timed queue calls as a share of [domains] x [wall_ns]: the
   most a faster queue could save. *)
let queue_share_pct recorders ~domains ~wall_ns =
  let busy = List.fold_left (fun a r -> a + r.Probe.busy_ns) 0 recorders in
  100.0 *. float_of_int busy /. float_of_int (domains * wall_ns)

(* Cost of the traced part of a run relative to its untraced part, on the
   same latency measure. *)
let overhead_pct ~plain ~traced = 100.0 *. (traced -. plain) /. plain

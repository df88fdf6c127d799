(* steady_mixed: the library under a closed loop, because a library
   caller waits on each call.

   A [Zmsq.Default] queue with [Params.default] is preloaded from one
   handle with uniform 20-bit keys (this is the set-up); then two domains
   run 50% insert / 50% extract, keys drawn on the fly from per-domain
   seeded generators, for one-second segments. The tree is many
   times a core's 2 MiB L2, so the time goes to the core tree, the pool,
   the node sets and hazard pointers, with no blocking, no [Shard] and no
   network.

   The unit of work is a block of [block] consecutive calls by one domain;
   its latency is the block's time divided by [block]. Single calls are
   bimodal (a pool hit next to a tree insert), which makes a per-call
   median jump between the two modes from run to run. *)

module Q = Zmsq.Default
module Elt = Zmsq_pq.Elt
module Rng = Zmsq_util.Rng
module Timing = Zmsq_util.Timing
module T = Probe.Timed (Q)

let preload = 300_000
let setups = 3
let topk = 10_000
let key_bits = 20
let block = 64

type tally = {
  mutable ops : int;
  mutable ins : int;
  mutable ins_sum : int;
  mutable ext : int;
  mutable ext_sum : int;
  mutable empty : int;
  lat : Samples.t;  (** block latencies of the current segment, ns per call *)
  rec_ : Probe.recorder;
}

let build ~seed =
  let t0 = Timing.now_ns () in
  let q = Q.create () in
  let h = Q.register q in
  let rng = Rng.create ~seed () in
  let sum = ref 0 in
  for _ = 1 to preload do
    let k = Rng.int rng (1 lsl key_bits) in
    sum := !sum + k;
    Q.insert h (Elt.of_priority k)
  done;
  Q.unregister h;
  (q, Timing.now_ns () - t0, !sum)

let run ~seed ~seconds ~traced =
  (* Set up several times from the same seed; measure on the last queue.
     Each earlier queue is collected first, so peak memory is one queue. *)
  let setup_times = Array.make setups 0.0 and last = ref None in
  for i = 0 to setups - 1 do
    last := None;
    Gc.full_major ();
    let q, ns, sum = build ~seed in
    setup_times.(i) <- float_of_int ns /. 1e9;
    last := Some (q, sum)
  done;
  let q, preload_sum = Option.get !last in
  let setup_s = Samples.median setup_times in
  let segments = Gate.segments ~seconds in
  let seg_ns = int_of_float (seconds *. 1e9) / segments in
  let tallies =
    Array.init 2 (fun d ->
        {
          ops = 0;
          ins = 0;
          ins_sum = 0;
          ext = 0;
          ext_sum = 0;
          empty = 0;
          lat = Samples.create (1 lsl 18);
          rec_ = Probe.recorder ~capacity:(if traced then 1 lsl 20 else 1) (d + 1);
        })
  in
  let main_rec = Probe.recorder ~capacity:segments 0 in
  let gate = Gate.create () in
  let deadline = Atomic.make 0 and seg_traced = Atomic.make false and quit = Atomic.make false in
  let worker d =
    Domain.spawn (fun () ->
        let t = tallies.(d) in
        let h = Q.register q in
        let th = T.wrap t.rec_ h in
        let rng = Rng.create ~seed:((seed * 7919) + d + 1) () in
        let op traced =
          if Rng.bool rng then begin
            let k = Rng.int rng (1 lsl key_bits) in
            if traced then T.insert th (Elt.of_priority k) else Q.insert h (Elt.of_priority k);
            t.ins <- t.ins + 1;
            t.ins_sum <- t.ins_sum + k
          end
          else begin
            let e = if traced then T.extract th else Q.extract h in
            if Elt.is_none e then t.empty <- t.empty + 1
            else begin
              t.ext <- t.ext + 1;
              t.ext_sum <- t.ext_sum + Elt.priority e
            end
          end
        in
        let seen = ref 0 in
        while
          seen := Gate.await gate ~seen:!seen;
          not (Atomic.get quit)
        do
          let dl = Atomic.get deadline and traced = Atomic.get seg_traced in
          let prev = ref (Timing.now_ns ()) in
          while !prev < dl do
            for _ = 1 to block do
              op traced
            done;
            let now = Timing.now_ns () in
            Samples.add t.lat ((now - !prev) / block);
            t.ops <- t.ops + block;
            prev := now
          done;
          Gate.finish gate
        done;
        Q.unregister h)
  in
  let snap0 = Ledger.snapshot (module Q) q in
  let domains = Array.init 2 worker in
  let seg_mops = Array.make segments 0.0 in
  let seg_p50 = Array.make segments 0.0 and seg_p90 = Array.make segments 0.0 in
  let plain_lat = ref [] and traced_wall = ref 0 in
  for s = 0 to segments - 1 do
    let traced = Gate.traced_segment ~traced s in
    Array.iter (fun t -> Samples.clear t.lat) tallies;
    let ops0 = Array.fold_left (fun a t -> a + t.ops) 0 tallies in
    let id = Probe.fresh_id () in
    Atomic.set Probe.parent id;
    Atomic.set seg_traced traced;
    let t0 = Timing.now_ns () in
    Atomic.set deadline (t0 + seg_ns);
    Gate.release gate;
    Gate.sleep_until (t0 + seg_ns);
    Gate.wait_finished gate (2 * (s + 1));
    let t1 = Timing.now_ns () in
    Probe.span main_rec ~name:Probe.n_segment ~start:t0 ~stop:t1 ~id ~parent:0;
    if traced then traced_wall := !traced_wall + (t1 - t0);
    let ops = Array.fold_left (fun a t -> a + t.ops) 0 tallies - ops0 in
    seg_mops.(s) <- float_of_int ops /. (float_of_int (t1 - t0) /. 1e3);
    let sorted = Samples.sorted_of_list (Array.to_list (Array.map (fun t -> t.lat) tallies)) in
    seg_p50.(s) <- float_of_int (Samples.percentile sorted 50.0);
    seg_p90.(s) <- float_of_int (Samples.percentile sorted 90.0);
    if not traced then plain_lat := sorted :: !plain_lat
  done;
  let snap1 = Ledger.snapshot (module Q) q in
  (* Top-k quality: of [topk] extractions by two domains, the share whose
     priority is at least the [topk]-th largest present when they start
     (the paper's Table 1 measure). *)
  let present = Array.of_list (List.map Elt.priority (Q.Debug.elements q)) in
  Array.sort (fun a b -> Int.compare b a) present;
  let threshold = present.(topk - 1) in
  Atomic.set quit true;
  Gate.release gate;
  Array.iter Domain.join domains;
  let claimed = Atomic.make 0 and hits = Atomic.make 0 in
  let topk_sum = Atomic.make 0 and topk_n = Atomic.make 0 in
  let drain () =
    Domain.spawn (fun () ->
        let h = Q.register q in
        while Atomic.fetch_and_add claimed 1 < topk do
          let e = Q.extract h in
          if not (Elt.is_none e) then begin
            ignore (Atomic.fetch_and_add topk_sum (Elt.priority e));
            Atomic.incr topk_n;
            if Elt.priority e >= threshold then Atomic.incr hits
          end
        done;
        Q.unregister h)
  in
  Array.iter Domain.join (Array.init 2 (fun _ -> drain ()));
  let left = Q.Debug.elements q in
  let total f = Array.fold_left (fun a t -> a + f t) 0 tallies in
  let check =
    Checks.steady
      {
        Checks.in_count = preload + total (fun t -> t.ins);
        in_sum = preload_sum + total (fun t -> t.ins_sum);
        out_count = total (fun t -> t.ext) + Atomic.get topk_n;
        out_sum = total (fun t -> t.ext_sum) + Atomic.get topk_sum;
        left_count = List.length left;
        left_sum = List.fold_left (fun a e -> a + Elt.priority e) 0 left;
        invariant = Q.Debug.check_invariant q;
      }
  in
  let topk_pct = Outcome.pct (Atomic.get hits) topk in
  let p50s, traced_p50s = Gate.by_tracing ~traced seg_p50 in
  let p50 = Samples.median p50s in
  let p90 = Samples.median (fst (Gate.by_tracing ~traced seg_p90)) in
  let tail = Samples.summarize_sorted (Samples.sort_concat !plain_lat) in
  let ops = total (fun t -> t.ops) in
  let recorders = Array.to_list (Array.map (fun t -> t.rec_) tallies) in
  let layer =
    if not traced then []
    else
      Ledger.metrics
        {
          Ledger.recorders;
          work =
            Ledger.work snap0 snap1
              ~inserts:(total (fun t -> t.ins))
              ~extracts:(total (fun t -> t.ext + t.empty))
              ~empty:(total (fun t -> t.empty));
          leaf_level = Q.Debug.leaf_level q;
          queue_share_pct = Ledger.queue_share_pct recorders ~domains:2 ~wall_ns:!traced_wall;
          topk_pct;
          reexpand_pct = 0.0;
          net = None;
          gen_lag_pct = 0.0;
          trace_overhead_pct =
            Ledger.overhead_pct ~plain:p50 ~traced:(Samples.median traced_p50s);
          tail;
        }
  in
  ( {
      Outcome.workload = "steady_mixed";
      checks = [ ("conservation+invariant", check) ];
      attempted = ops + topk;
      failed = 0;
      e2e =
        [
          ("setup_s", setup_s);
          ("p50_us", p50 /. 1e3);
          ("p90_us", p90 /. 1e3);
          ("peak_rss_mb", Outcome.peak_rss_mb None);
        ];
      layer;
      diag =
        [
          ("ops_mops", Samples.median (fst (Gate.by_tracing ~traced seg_mops)));
          ("topk_pct", topk_pct);
          ("preload", float_of_int preload);
          ("tail.p99_us", Outcome.us_of_ns tail.Samples.p99);
          ("tail.p99_beyond", float_of_int tail.Samples.beyond_p99);
          ("tail.p999_us", Outcome.us_of_ns tail.Samples.p999);
          ("tail.p999_beyond", float_of_int tail.Samples.beyond_p999);
          ("samples", float_of_int tail.Samples.n);
        ];
    },
    main_rec :: recorders )

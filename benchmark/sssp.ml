(* sssp: the paper's application benchmark (Figs. 7-8), closed loop.

   [Zmsq_graph.Sssp_parallel.run] with 2 domains over a [Zmsq.Default]
   queue with [Params.default], on the 50k-vertex Barabási-Albert stand-in
   for the paper's Artist graph. Graph generation is the set-up; the
   Dijkstra oracle runs outside every timed window. Inserted priorities
   cluster just below the current maximum instead of spreading uniformly,
   so the core is used differently from steady_mixed, and relaxation
   costs real work: a vertex expanded too early is expanded again.

   The unit of work is one solve, timed around the [run] call (domain
   start-up and the distance array included, as a caller sees it), on a
   fresh queue and a collected heap each time. Solves repeat until the
   time is up, cycling through [sources] seeded source vertices so one
   run's median does not hang on one vertex's reach. *)

module Q = Zmsq.Default
module Sp = Zmsq_graph.Sssp_parallel
module Timing = Zmsq_util.Timing

let setups = 5
let min_solves = 3
let sources = 4

let generate ~seed = Zmsq_graph.Gen.artist (Zmsq_util.Rng.create ~seed ())

let run ~seed ~seconds ~traced =
  let setup_times = Array.make setups 0.0 and last = ref None in
  for i = 0 to setups - 1 do
    last := None;
    Gc.full_major ();
    let t0 = Timing.now_ns () in
    let g = generate ~seed in
    setup_times.(i) <- float_of_int (Timing.now_ns () - t0) /. 1e9;
    last := Some g
  done;
  let graph = Option.get !last in
  let n = Zmsq_graph.Csr.n_vertices graph in
  let rng = Zmsq_util.Rng.create ~seed:(seed + 17) () in
  let srcs = Array.init sources (fun _ -> Zmsq_util.Rng.int rng n) in
  let oracles = Array.map (fun source -> Zmsq_graph.Dijkstra.dijkstra graph ~source) srcs in
  let reached =
    Array.map
      (Array.fold_left (fun a d -> if d < Zmsq_graph.Dijkstra.infinity_dist then a + 1 else a) 0)
      oracles
  in
  let needed = ref 0 in
  let pool = Probe.pool ~stride:4 ~capacity:(if traced then 1 lsl 20 else 1) 3 in
  let main_rec = Probe.recorder ~capacity:4096 0 in
  let times = ref [] and traced_times = ref [] and checks = ref [] in
  let pops = ref 0 and stale = ref 0 and solves = ref 0 in
  let traced_ns = ref 0 and work = ref Ledger.no_work and leaf = ref 0 in
  let t_end = Timing.now_ns () + int_of_float (seconds *. 1e9) in
  while !solves < min_solves || Timing.now_ns () < t_end do
    let tr = Gate.traced_segment ~traced !solves in
    (* Each source twice in a row, so a traced run times every source
       both with and without tracing. *)
    let k = !solves / 2 mod sources in
    Gc.full_major ();
    let q = Q.create () in
    let snap0 = Ledger.snapshot (module Q) q in
    let inst =
      if tr then Probe.instance (module Q) q pool else Zmsq_pq.Intf.pack (module Q) q
    in
    let id = Probe.fresh_id () in
    Atomic.set Probe.parent id;
    let t0 = Timing.now_ns () in
    let dist, st = Sp.run inst ~graph ~source:srcs.(k) ~threads:2 in
    let t1 = Timing.now_ns () in
    Probe.span main_rec ~name:Probe.n_solve ~start:t0 ~stop:t1 ~id ~parent:0;
    let ns = t1 - t0 in
    if tr then begin
      traced_ns := !traced_ns + ns;
      traced_times := float_of_int ns :: !traced_times
    end
    else times := float_of_int ns :: !times;
    checks :=
      (Printf.sprintf "distances solve %d" !solves, Checks.distances ~oracle:oracles.(k) dist)
      :: !checks;
    needed := !needed + reached.(k);
    pops := !pops + st.Sp.pops;
    stale := !stale + st.Sp.stale;
    work :=
      Ledger.add !work
        (Ledger.work snap0 (Ledger.snapshot (module Q) q) ~inserts:(st.Sp.relaxations + 1)
           ~extracts:(st.Sp.pops + st.Sp.empty_pops) ~empty:st.Sp.empty_pops);
    leaf := max !leaf (Q.Debug.leaf_level q);
    incr solves
  done;
  let plain = Array.of_list !times in
  let sorted = Array.map int_of_float plain in
  Array.sort Int.compare sorted;
  let tail = Samples.summarize_sorted sorted in
  let p50 = float_of_int (Samples.percentile sorted 50.0) in
  let p90 = float_of_int (Samples.percentile sorted 90.0) in
  (* Vertices expanded more than once: every pop that was not stale
     expanded a vertex, and each reached vertex needs one expansion. *)
  let reexpand_pct = 100.0 *. float_of_int (!pops - !stale - !needed) /. float_of_int !needed in
  let recorders = pool.Probe.all in
  let layer =
    if not traced then []
    else
      Ledger.metrics
        {
          Ledger.recorders;
          work = !work;
          leaf_level = !leaf;
          queue_share_pct = Ledger.queue_share_pct recorders ~domains:2 ~wall_ns:!traced_ns;
          topk_pct = 0.0;
          reexpand_pct;
          net = None;
          gen_lag_pct = 0.0;
          trace_overhead_pct =
            Ledger.overhead_pct ~plain:(Samples.median plain)
              ~traced:(Samples.median (Array.of_list !traced_times));
          tail;
        }
  in
  ( {
      Outcome.workload = "sssp";
      checks = List.rev !checks;
      attempted = !solves;
      failed = 0;
      e2e =
        [
          ("setup_s", Samples.median setup_times);
          ("p50_us", p50 /. 1e3);
          ("p90_us", p90 /. 1e3);
          ("peak_rss_mb", Outcome.peak_rss_mb None);
        ];
      layer;
      diag =
        [
          ("solve_s", p50 /. 1e9);
          ("reexpand_pct", reexpand_pct);
          ("solves", float_of_int !solves);
          ("vertices", float_of_int n);
          ("pops_per_solve", float_of_int !pops /. float_of_int !solves);
          ("tail.p99_us", Outcome.us_of_ns tail.Samples.p99);
        ];
    },
    main_rec :: recorders )

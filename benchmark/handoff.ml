(* handoff: the blocking path of the paper's Fig. 4, under an open loop,
   because job submitters do not wait for consumers.

   A [Zmsq.Default] queue with [{Params.default with blocking = true}].
   One producer domain inserts at Poisson arrivals (mean [rate] per
   second), spinning to each due time; one consumer domain waits in
   [extract_blocking]. The queue holds only a few elements, so the time
   goes to eventcount sleep/wake and pool refill, and almost none to tree
   depth. A handoff's latency runs from its intended send time to the
   consumer's receipt. *)

module Q = Zmsq.Default
module Elt = Zmsq_pq.Elt
module Rng = Zmsq_util.Rng
module Timing = Zmsq_util.Timing
module T = Probe.Timed (Q)

let rate = 20_000.0
let setups = 7
let key_bits = 20

type segment = {
  sched : int array;
  start : int;
  recv : int array;
  seen : int array;
  lag : Samples.t;
  traced : bool;
}

type rig = {
  q : Q.t;
  gate : Gate.t;
  seg : segment option Atomic.t;  (** [None] tells the workers to quit *)
  domains : unit Domain.t array;
  precs : Probe.recorder;
  crecs : Probe.recorder;
}

(* Set-up: create the queue and bring both domains up, registered. *)
let rig ~seed ~capacity =
  let t0 = Timing.now_ns () in
  let q = Q.create ~params:{ Zmsq.Params.default with blocking = true } () in
  let gate = Gate.create () in
  let seg = Atomic.make None in
  let precs = Probe.recorder ~capacity 1 and crecs = Probe.recorder ~capacity 2 in
  let producer () =
    let h = Q.register q in
    let th = T.wrap precs h in
    let rng = Rng.create ~seed:((seed * 7919) + 1) () in
    Gate.finish gate;
    let seen = ref 0 in
    while
      seen := Gate.await gate ~seen:!seen;
      Option.is_some (Atomic.get seg)
    do
      let s = Option.get (Atomic.get seg) in
      let send i =
        let e = Elt.pack ~priority:(Rng.int rng (1 lsl key_bits)) ~payload:i in
        if s.traced then T.insert th e else Q.insert h e
      in
      let rec spin due = if Timing.now_ns () < due then (Domain.cpu_relax (); spin due) in
      Openloop.drive ~now:Timing.now_ns ~wait:spin ~start:s.start ~sched:s.sched ~send
        ~lag:s.lag;
      Gate.finish gate
    done;
    Q.unregister h
  in
  let consumer () =
    let h = Q.register q in
    let th = T.wrap crecs h in
    Gate.finish gate;
    let seen = ref 0 in
    while
      seen := Gate.await gate ~seen:!seen;
      Option.is_some (Atomic.get seg)
    do
      let s = Option.get (Atomic.get seg) in
      for _ = 1 to Array.length s.sched do
        let e = if s.traced then T.extract_blocking th else Q.extract_blocking h in
        let now = Timing.now_ns () in
        let i = Elt.payload e in
        s.seen.(i) <- s.seen.(i) + 1;
        s.recv.(i) <- now
      done;
      Gate.finish gate
    done;
    Q.unregister h
  in
  let domains = [| Domain.spawn producer; Domain.spawn consumer |] in
  Gate.wait_finished gate 2;
  let r = { q; gate; seg; domains; precs; crecs } in
  (r, Timing.now_ns () - t0)

let stop r =
  Atomic.set r.seg None;
  Gate.release r.gate;
  Array.iter Domain.join r.domains

let run ~seed ~seconds ~traced =
  let capacity = if traced then 1 lsl 18 else 1 in
  let setup_times = Array.make setups 0.0 and last = ref None in
  for i = 0 to setups - 1 do
    Option.iter stop !last;
    let r, ns = rig ~seed ~capacity in
    setup_times.(i) <- float_of_int ns /. 1e9;
    last := Some r
  done;
  let r = Option.get !last in
  let segments = Gate.segments ~seconds in
  let seg_ns = int_of_float (seconds *. 1e9) / segments in
  let main_rec = Probe.recorder ~capacity:segments 0 in
  let snap0 = Ledger.snapshot (module Q) r.q in
  let seg_p50 = Array.make segments 0.0 and seg_p90 = Array.make segments 0.0 in
  let plain = ref [] and lags = ref [] and checks = ref [] and handoffs = ref 0 in
  for s = 0 to segments - 1 do
    let traced = Gate.traced_segment ~traced s in
    let sched = Openloop.schedule ~seed:((seed * 1000) + s) ~rate ~duration_ns:seg_ns in
    let n = Array.length sched in
    (* The first arrival is due 2 ms out, so both domains are awake. *)
    let start = Timing.now_ns () + 2_000_000 in
    let sg =
      {
        sched;
        start;
        recv = Array.make n 0;
        seen = Array.make n 0;
        lag = Samples.create n;
        traced;
      }
    in
    let id = Probe.fresh_id () in
    Atomic.set Probe.parent id;
    Atomic.set r.seg (Some sg);
    Gate.release r.gate;
    Gate.sleep_until (start + seg_ns);
    Gate.wait_finished r.gate (2 + (2 * (s + 1)));
    Probe.span main_rec ~name:Probe.n_segment ~start ~stop:(Timing.now_ns ()) ~id ~parent:0;
    let lat = Samples.create n in
    Array.iteri (fun i t -> Samples.add lat (t - (start + sched.(i)))) sg.recv;
    let sorted = Samples.sorted_of_list [ lat ] in
    seg_p50.(s) <- float_of_int (Samples.percentile sorted 50.0);
    seg_p90.(s) <- float_of_int (Samples.percentile sorted 90.0);
    if not traced then plain := sorted :: !plain;
    lags := sg.lag :: !lags;
    handoffs := !handoffs + n;
    checks := (Printf.sprintf "exactly-once segment %d" s, Checks.exactly_once sg.seen) :: !checks
  done;
  let snap1 = Ledger.snapshot (module Q) r.q in
  let leaf_level = Q.Debug.leaf_level r.q in
  stop r;
  let p50s, traced_p50s = Gate.by_tracing ~traced seg_p50 in
  let p50 = Samples.median p50s in
  let p90 = Samples.median (fst (Gate.by_tracing ~traced seg_p90)) in
  let tail = Samples.summarize_sorted (Samples.sort_concat !plain) in
  let lag = Samples.summarize !lags in
  let gen_lag_pct = Openloop.lag_pct ~lag_p99_ns:lag.Samples.p99 ~rate in
  let recorders = [ r.precs; r.crecs ] in
  let work = Ledger.work snap0 snap1 ~inserts:!handoffs ~extracts:!handoffs ~empty:0 in
  let layer =
    if not traced then []
    else
      Ledger.metrics
        {
          Ledger.recorders;
          work;
          leaf_level;
          queue_share_pct =
            Ledger.queue_share_pct recorders ~domains:2 ~wall_ns:(seg_ns * (segments / 2));
          topk_pct = 0.0;
          reexpand_pct = 0.0;
          net = None;
          gen_lag_pct;
          trace_overhead_pct =
            Ledger.overhead_pct ~plain:p50 ~traced:(Samples.median traced_p50s);
          tail;
        }
  in
  ( {
      Outcome.workload = "handoff";
      checks = List.rev !checks;
      attempted = !handoffs;
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
          ("handoff_p50_us", p50 /. 1e3);
          ("handoff_p90_us", p90 /. 1e3);
          ("sleeping_handoffs_pct", Outcome.pct work.Ledger.sleeps !handoffs);
          ("gen_lag_p99_us", Outcome.us_of_ns lag.Samples.p99);
          ("gen_lag_pct", gen_lag_pct);
          ("tail.p99_us", Outcome.us_of_ns tail.Samples.p99);
          ("tail.p99_beyond", float_of_int tail.Samples.beyond_p99);
          ("tail.p999_us", Outcome.us_of_ns tail.Samples.p999);
          ("tail.p999_beyond", float_of_int tail.Samples.beyond_p999);
          ("samples", float_of_int tail.Samples.n);
        ];
    },
    main_rec :: recorders )

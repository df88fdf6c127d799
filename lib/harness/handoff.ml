module Rng = Zmsq_util.Rng
module Elt = Zmsq_pq.Elt
module Timing = Zmsq_util.Timing
module Q = Zmsq.Default

type mode = Spin | Block

type spec = { producers : int; consumers : int; handoffs : int; batch : int; seed : int }

type result = {
  mean_latency_ns : float;
  p99_latency_ns : float;
  p999_latency_ns : float;
  max_latency_ns : float;
  wall_seconds : float;
  cpu_seconds : float;
  sleeps : int;
  wakes : int;
}

let poison_payload = (1 lsl Elt.payload_bits) - 1

let run mode spec =
  if spec.producers < 1 || spec.consumers < 1 || spec.handoffs < 1 then
    invalid_arg "Handoff.run";
  let params =
    {
      (Zmsq.Params.with_batch spec.batch Zmsq.Params.default) with
      Zmsq.Params.blocking = (mode = Block);
    }
  in
  let q = Q.create ~params () in
  let stamps = Array.init spec.handoffs (fun _ -> Atomic.make 0) in
  let next_item = Atomic.make 0 in
  let live_producers = Atomic.make spec.producers in
  let threads = spec.producers + spec.consumers in
  let cpu0 = Timing.cpu_seconds () in
  let results, wall =
    Runner.timed_parallel_pre ~threads
      ~setup:(fun tid -> (Q.register q, Rng.create ~seed:(spec.seed + tid) ()))
      ~run:(fun tid (h, rng) ->
        if tid < spec.producers then begin
          (* Producer: claim item indexes, stamp, insert. Backpressure keeps
             the queue short so the metric is handoff latency, not backlog
             residence time (essential on an oversubscribed machine). *)
          let high_water = 8 * (spec.producers + spec.consumers) in
          let rec produce () =
            let i = Atomic.fetch_and_add next_item 1 in
            if i < spec.handoffs then begin
              while Q.length q > high_water do
                Domain.cpu_relax () (* lint: allow unbounded-spin producer backpressure of the Fig. 4 shape *)
              done;
              Atomic.set stamps.(i) (Timing.now_ns ());
              Q.insert h (Elt.pack ~priority:(Rng.int rng (1 lsl 20)) ~payload:i);
              produce ()
            end
          in
          produce ();
          (* The last producer out poisons every consumer. *)
          if Atomic.fetch_and_add live_producers (-1) = 1 then
            for _ = 1 to spec.consumers do
              Q.insert h (Elt.pack ~priority:0 ~payload:poison_payload)
            done;
          Q.unregister h;
          Zmsq_util.Stats.Histogram.create ()
        end
        else begin
          let hist = Zmsq_util.Stats.Histogram.create () in
          let next () =
            match mode with
            | Block -> Q.extract_blocking h
            | Spin ->
                let rec spin () =
                  let e = Q.extract h in
                  if Elt.is_none e then begin
                    Domain.cpu_relax (); (* lint: allow unbounded-spin the measured Fig. 4 spin consumer *)
                    spin ()
                  end
                  else e
                in
                spin ()
          in
          let rec consume () =
            let e = next () in
            if Elt.payload e <> poison_payload then begin
              let lat = Timing.now_ns () - Atomic.get stamps.(Elt.payload e) in
              Zmsq_util.Stats.Histogram.add hist (float_of_int (max 1 lat));
              consume ()
            end
          in
          consume ();
          Q.unregister h;
          hist
        end)
  in
  let cpu1 = Timing.cpu_seconds () in
  let hist =
    Array.fold_left Zmsq_util.Stats.Histogram.merge (Zmsq_util.Stats.Histogram.create ()) results
  in
  let sleeps, wakes =
    match Q.Debug.eventcount_stats q with Some sw -> sw | None -> (0, 0)
  in
  {
    mean_latency_ns = Zmsq_util.Stats.Histogram.mean hist;
    p99_latency_ns = Zmsq_util.Stats.Histogram.percentile hist 99.0;
    p999_latency_ns = Zmsq_util.Stats.Histogram.p999 hist;
    max_latency_ns = Zmsq_util.Stats.Histogram.max_value hist;
    wall_seconds = wall;
    cpu_seconds = cpu1 -. cpu0;
    sleeps;
    wakes;
  }

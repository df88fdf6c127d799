(* Open-loop load: a Poisson arrival schedule fixed by the seed, and a
   loop that issues each request at its due time whatever happened to
   the previous ones.

   Every latency is charged from the request's intended send time, never
   from when the generator actually got to it. A stall in the system (or
   in the generator) therefore shows up in the latency of every request
   that was due during it, instead of silently thinning the load: no
   coordinated omission. How late the generator ran is recorded
   separately, so a run whose generator could not keep its own schedule
   is flagged instead of trusted. *)

module Rng = Zmsq_util.Rng

(* Offsets in ns from the start of the window, strictly increasing, of
   Poisson arrivals at [rate] per second over [duration_ns]. The same
   [seed] always gives the same schedule. *)
let schedule ~seed ~rate ~duration_ns =
  if rate <= 0.0 then invalid_arg "Openloop.schedule: rate must be positive";
  let rng = Rng.create ~seed () in
  let rec go t acc =
    let t = t + 1 + int_of_float (Rng.exponential rng ~rate *. 1e9) in
    if t >= duration_ns then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0 []

let mean_gap_ns ~rate = 1e9 /. rate

(* Issue request [i] at [start + sched.(i)] for every [i]. [wait target]
   returns once the clock reads at least [target] (a real client does its
   receive work while waiting); [send i] issues request [i]. The lag of
   each send behind its due time goes to [lag]. *)
let drive ~now ~wait ~start ~sched ~send ~lag =
  for i = 0 to Array.length sched - 1 do
    let due = start + sched.(i) in
    if now () < due then wait due;
    Samples.add lag (now () - due);
    send i
  done

(* The generator's p99 lag as a share of the mean gap between arrivals.
   Above 100% the generator did not keep its own schedule, and the run is
   flagged invalid. *)
let lag_pct ~lag_p99_ns ~rate = 100.0 *. float_of_int lag_p99_ns /. mean_gap_ns ~rate

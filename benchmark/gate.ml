(* Segment coordination between the measuring domain and its workers.
   Nothing here spins: on a 2-core machine a spinning coordinator would
   take a core from the two domains under measurement. *)

type t = { mu : Mutex.t; cv : Condition.t; mutable gen : int; mutable finished : int }

let create () = { mu = Mutex.create (); cv = Condition.create (); gen = 0; finished = 0 }

(* Start the next segment. *)
let release t =
  Mutex.protect t.mu (fun () ->
      t.gen <- t.gen + 1;
      Condition.broadcast t.cv)

(* A worker's wait for the segment after [seen]; returns its number. *)
let await t ~seen =
  Mutex.protect t.mu (fun () ->
      while t.gen = seen do
        Condition.wait t.cv t.mu
      done;
      t.gen)

let finish t =
  Mutex.protect t.mu (fun () ->
      t.finished <- t.finished + 1;
      Condition.broadcast t.cv)

(* The coordinator's wait for [n] finishes in total. *)
let wait_finished t n =
  Mutex.protect t.mu (fun () ->
      while t.finished < n do
        Condition.wait t.cv t.mu
      done)

(* A run's measured window is cut into half-second segments (at least
   five) and its latency metrics are medians over segments: a burst of
   interference from a neighbour on a shared machine then moves a few
   segments, not the result. *)
let segments ~seconds = max 5 (int_of_float (Float.round (2.0 *. seconds)))

(* A traced run traces every other segment, so that the untraced ones
   give its latency and the difference gives the tracing overhead. *)
let traced_segment ~traced s = traced && s land 1 = 1

(* Per-segment values split into the untraced and the traced segments'. *)
let by_tracing ~traced a =
  let indexed = List.mapi (fun s v -> (s, v)) (Array.to_list a) in
  let tr, plain = List.partition (fun (s, _) -> traced_segment ~traced s) indexed in
  (Array.of_list (List.map snd plain), Array.of_list (List.map snd tr))

let sleep_until ns =
  let d = ns - Zmsq_util.Timing.now_ns () in
  if d > 0 then Unix.sleepf (float_of_int d /. 1e9)

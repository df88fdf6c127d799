module Elt = Zmsq_pq.Elt
module Intf = Zmsq_pq.Intf

type stats = {
  pops : int;
  empty_pops : int;
  stale : int;
  relaxations : int;
  wall_seconds : float;
}

let encode dist v = Elt.pack ~priority:(Elt.max_priority - dist) ~payload:v
let dist_of e = Elt.max_priority - Elt.priority e

(* Lower [dist.(v)] to [nd] if it improves it; true on success. *)
let rec cas_min dist v nd =
  let cur = Atomic.get dist.(v) in
  if nd >= cur then false else if Atomic.compare_and_set dist.(v) cur nd then true else cas_min dist v nd

let run (inst : Intf.instance) ~graph ~source ~threads =
  let module I = (val inst : Intf.INSTANCE) in
  let n = Csr.n_vertices graph in
  if source < 0 || source >= n then invalid_arg "Sssp_parallel.run: bad source";
  if threads < 1 then invalid_arg "Sssp_parallel.run: threads must be >= 1";
  let dist = Array.init n (fun _ -> Atomic.make Dijkstra.infinity_dist) in
  Atomic.set dist.(source) 0;
  let inflight = Atomic.make 1 in
  let seed = I.Q.register I.q in
  I.Q.insert seed (encode 0 source);
  I.Q.unregister seed;
  let barrier = Zmsq_sync.Barrier.create threads in
  let t0 = ref 0 in
  let worker _ =
    Domain.spawn (fun () ->
        let h = I.Q.register I.q in
        Zmsq_sync.Barrier.wait barrier;
        if !t0 = 0 then t0 := Zmsq_util.Timing.now_ns ();
        let pops = ref 0 and empty = ref 0 and stale = ref 0 and relax = ref 0 in
        let rec loop () =
          let e = I.Q.extract h in
          if Elt.is_none e then begin
            incr empty;
            if Atomic.get inflight > 0 then begin
              Domain.cpu_relax (); (* lint: allow unbounded-spin one idle worker per domain *)
              loop ()
            end
          end
          else begin
            incr pops;
            let d = dist_of e and v = Elt.payload e in
            if d > Atomic.get dist.(v) then incr stale
            else
              Csr.iter_succ graph v (fun u w ->
                  let nd = d + w in
                  if cas_min dist u nd then begin
                    incr relax;
                    Atomic.incr inflight;
                    I.Q.insert h (encode nd u)
                  end);
            Atomic.decr inflight;
            loop ()
          end
        in
        loop ();
        I.Q.unregister h;
        (!pops, !empty, !stale, !relax))
  in
  let domains = Array.init threads worker in
  let totals =
    Array.fold_left
      (fun (p, e, s, r) d ->
        let p', e', s', r' = Domain.join d in
        (p + p', e + e', s + s', r + r'))
      (0, 0, 0, 0) domains
  in
  let t1 = Zmsq_util.Timing.now_ns () in
  let pops, empty_pops, stale, relaxations = totals in
  let result = Array.map Atomic.get dist in
  ( result,
    {
      pops;
      empty_pops;
      stale;
      relaxations;
      wall_seconds = float_of_int (t1 - !t0) /. 1e9;
    } )

let check_against_dijkstra g ~source result =
  let oracle = Dijkstra.dijkstra g ~source in
  oracle = result

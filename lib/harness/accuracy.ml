module Rng = Zmsq_util.Rng
module Elt = Zmsq_pq.Elt
module Keys = Zmsq_dist.Keys
module Intf = Zmsq_pq.Intf

type spec = { qsize : int; extracts : int; threads : int; seed : int }

let validate spec =
  if spec.qsize <= 0 || spec.extracts <= 0 || spec.extracts > spec.qsize || spec.threads <= 0
  then invalid_arg "Accuracy: bad spec"

let top_k_set keys k =
  let sorted = Array.copy keys in
  Array.sort (fun a b -> compare b a) sorted;
  let tbl = Hashtbl.create k in
  for i = 0 to k - 1 do
    Hashtbl.replace tbl sorted.(i) ()
  done;
  tbl

(* {2 Rank-error oracle}

   A sequential mirror of the queue contents for relaxation-bound tests:
   the test [add]s every key it inserts and [observe]s every extraction,
   obtaining that extraction's rank error — the number of elements that
   were live and strictly greater than the returned one (0 = the true
   maximum was returned). ZMSQ's bound says the gap between rank-0
   observations never exceeds [batch + ndomains * buffer_len]; see
   {!max_zero_gap}. Single-owner (wrap in a mutex to observe from several
   threads, or funnel observations through one domain). *)
module Oracle = struct
  module M = Map.Make (Int)

  (* key -> multiplicity of live elements *)
  type t = { mutable live : int M.t; mutable n : int }

  let create () = { live = M.empty; n = 0 }

  let add t e =
    if Elt.is_none e then invalid_arg "Oracle.add: none";
    t.live <- M.update e (fun c -> Some (1 + Option.value c ~default:0)) t.live;
    t.n <- t.n + 1

  let live t = t.n

  let rank t e =
    let _, _, above = M.split e t.live in
    M.fold (fun _ c acc -> acc + c) above 0

  let observe t e =
    match M.find_opt e t.live with
    | None -> invalid_arg "Oracle.observe: element not live"
    | Some c ->
        let r = rank t e in
        t.live <- (if c = 1 then M.remove e t.live else M.add e (c - 1) t.live);
        t.n <- t.n - 1;
        r
end

(* Longest run of consecutive non-zero rank errors: [max_zero_gap ranks <=
   k] iff every window of [k + 1] consecutive extractions returned the
   then-true maximum at least once. *)
let max_zero_gap ranks =
  let best = ref 0 and cur = ref 0 in
  List.iter
    (fun r ->
      if r = 0 then cur := 0
      else begin
        incr cur;
        if !cur > !best then best := !cur
      end)
    ranks;
  !best

(* Rank-error bound for the sharded queue (Zmsq.Shard). Each of the
   [shards] inner queues hides at most [batch + ndomains * buffer_len]
   elements above the one it returns (the single-queue bound), so an
   extraction that picked the right shard sees rank error at most
   [shards * (batch + ndomains * buffer_len)] — the other shards'
   windows stack on top. Two-choice selection over cached maxima is
   probabilistic, not adversarial: with 2 shards both are sampled (the
   choice is exact up to cache staleness), and with s > 2 each extraction
   misses the best shard with probability at most (s-2)/s, so a run of
   consecutive misses longer than [4 * s * (s - 1)] has vanishing
   probability under the property suite's iteration counts (at s = 4:
   (1/2)^48 ≈ 4e-15). The slack term covers exactly those runs plus
   cached-maximum staleness; [shards = 1] collapses to the single-queue
   bound. *)
let sharded_bound ~shards ~batch ~ndomains ~buffer_len =
  if shards < 1 then invalid_arg "Accuracy.sharded_bound";
  let per_shard = batch + (ndomains * buffer_len) in
  let selection_slack = if shards = 1 then 0 else 4 * shards * (shards - 1) in
  (shards * per_shard) + selection_slack

let run factory spec =
  validate spec;
  let inst = factory () in
  let module I = (val inst : Intf.INSTANCE) in
  let rng = Rng.create ~seed:spec.seed () in
  let keys = Keys.unique rng spec.qsize in
  let h0 = I.Q.register I.q in
  Array.iter (fun k -> I.Q.insert h0 (Elt.of_priority k)) keys;
  I.Q.unregister h0;
  let topk = top_k_set keys spec.extracts in
  let share t = (spec.extracts / spec.threads) + if t < spec.extracts mod spec.threads then 1 else 0 in
  let results, _ =
    Runner.timed_parallel_pre ~threads:spec.threads
      ~setup:(fun tid -> (I.Q.register I.q, share tid))
      ~run:(fun _ (h, quota) ->
        let hits = ref 0 in
        let got = ref 0 in
        (* Relaxed queues may spuriously fail; the queue cannot actually be
           empty here since extracts <= qsize. *)
        while !got < quota do
          let e = I.Q.extract h in
          if not (Elt.is_none e) then begin
            incr got;
            if Hashtbl.mem topk (Elt.priority e) then incr hits
          end
        done;
        I.Q.unregister h;
        !hits)
  in
  let hits = Array.fold_left ( + ) 0 results in
  float_of_int hits /. float_of_int spec.extracts *. 100.0

let run_avg ?repeats factory spec =
  let repeats =
    match repeats with Some r -> r | None -> Zmsq_util.Env.int "ZMSQ_BENCH_RUNS" ~default:3
  in
  let acc = ref 0.0 in
  for i = 1 to repeats do
    acc := !acc +. run factory { spec with seed = spec.seed + (i * 7919) }
  done;
  !acc /. float_of_int repeats

(* A FIFO is sequential; measure it on one thread regardless of the spec's
   thread count. *)
let fifo_baseline spec =
  validate spec;
  let rng = Rng.create ~seed:spec.seed () in
  let keys = Keys.unique rng spec.qsize in
  let fifo = Zmsq_pq.Fifo.create () in
  Array.iter (fun k -> Zmsq_pq.Fifo.insert fifo (Elt.of_priority k)) keys;
  let topk = top_k_set keys spec.extracts in
  let hits = ref 0 in
  for _ = 1 to spec.extracts do
    let e = Zmsq_pq.Fifo.extract_max fifo in
    if Hashtbl.mem topk (Elt.priority e) then incr hits
  done;
  float_of_int !hits /. float_of_int spec.extracts *. 100.0

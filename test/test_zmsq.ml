(* Tests for the ZMSQ core: strictness, relaxation bounds, invariants,
   blocking, concurrency, ablation configurations, both set variants. *)

module Elt = Zmsq_pq.Elt
module P = Zmsq.Params
module Rng = Zmsq_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {2 Params} *)

let test_params_validate () =
  Alcotest.check_raises "negative batch" (Invalid_argument "Params: batch must be >= 0")
    (fun () -> ignore (P.validate { P.default with P.batch = -1 }));
  Alcotest.check_raises "zero target_len" (Invalid_argument "Params: target_len must be >= 1")
    (fun () -> ignore (P.validate { P.default with P.target_len = 0 }));
  check Alcotest.int "strict batch" 0 P.strict.P.batch;
  let s = P.static 16 in
  check Alcotest.int "static batch" 16 s.P.batch;
  check Alcotest.int "static target" 16 s.P.target_len

let test_params_dynamic () =
  (* paper: dynamic (1:1.5) at 8 threads = batch 8, target_len 12 *)
  let p = P.dynamic ~ratio_num:2 ~ratio_den:3 ~threads:8 in
  check Alcotest.int "batch" 8 p.P.batch;
  check Alcotest.int "target" 12 p.P.target_len;
  let p = P.dynamic ~ratio_num:2 ~ratio_den:1 ~threads:4 in
  check Alcotest.int "2:1 batch" 8 p.P.batch;
  check Alcotest.int "2:1 target" 4 p.P.target_len

(* {2 Strict mode (batch = 0) is an exact priority queue} *)

module type ZQ = Zmsq.S

(* The list set, kept beside the array-set default as its reference: the
   "(list)" cases run here and the "(array)" cases on [Zmsq.Default]. *)
module List_q = Zmsq.Make (Zmsq_sync.Lock.Tatas) (Zmsq.List_set)

let strict_exact (module Q : ZQ) () =
  let q = Q.create ~params:P.strict () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xE4 () in
  let keys = Array.init 20_000 (fun _ -> Rng.int rng 1_000_000) in
  Array.iter (fun k -> Q.insert h (Elt.of_priority k)) keys;
  check Alcotest.bool "invariant" true (Q.Debug.check_invariant q);
  let sorted = Array.copy keys in
  Array.sort (fun a b -> compare b a) sorted;
  Array.iteri
    (fun i want ->
      let e = Q.extract h in
      if Elt.priority e <> want then
        Alcotest.failf "strict order broken at %d: got %d want %d" i (Elt.priority e) want)
    sorted;
  check Alcotest.bool "drained" true (Elt.is_none (Q.extract h));
  Q.unregister h

(* {2 Exact emptiness} *)

let exact_emptiness (module Q : ZQ) () =
  let q = Q.create ~params:(P.static 8) () in
  let h = Q.register q in
  check Alcotest.bool "flag" true Q.exact_emptiness;
  check Alcotest.bool "empty at start" true (Elt.is_none (Q.extract h));
  Q.insert h (Elt.of_priority 42);
  check Alcotest.int "length" 1 (Q.length q);
  check Alcotest.int "got it" 42 (Elt.priority (Q.extract h));
  check Alcotest.bool "empty again" true (Elt.is_none (Q.extract h));
  check Alcotest.int "length zero" 0 (Q.length q);
  Q.unregister h

(* {2 The Section 3.7 relaxation bound}

   Single-threaded, batch = b: any window of k*(b+1) consecutive
   extractions must return a superset of the top-k elements present at the
   window's start. We verify the strongest useful case: after m
   extractions, every element of the true top floor(m/(b+1)) has been
   returned. *)

let relaxation_bound (module Q : ZQ) ~batch ~target_len () =
  let q = Q.create ~params:P.(default |> with_batch batch |> with_target_len target_len) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xB0B ()  in
  let n = 4096 in
  let keys = Zmsq_dist.Keys.unique rng n in
  Array.iter (fun k -> Q.insert h (Elt.of_priority k)) keys;
  let sorted = Array.copy keys in
  Array.sort (fun a b -> compare b a) sorted;
  let m = 2048 in
  let returned = Hashtbl.create m in
  for _ = 1 to m do
    let e = Q.extract h in
    Hashtbl.replace returned (Elt.priority e) ()
  done;
  let k = m / (batch + 1) in
  for i = 0 to k - 1 do
    if not (Hashtbl.mem returned sorted.(i)) then
      Alcotest.failf "top-%d element %d (rank %d) missing after %d extractions (batch=%d)" k
        sorted.(i) i m batch
  done;
  Q.unregister h

(* {2 Multiset preservation + invariant under random sequential ops} *)

let prop_random_ops (module Q : ZQ) name =
  QCheck.Test.make ~name:(Printf.sprintf "%s: random ops keep invariant+multiset" name) ~count:60
    QCheck.(
      pair (list (option (int_bound 10_000)))
        (pair (int_bound 32) (int_range 1 24)))
    (fun (ops, (batch, target_len)) ->
      let q = Q.create ~params:P.(default |> with_batch batch |> with_target_len target_len) () in
      let h = Q.register q in
      let inserted = ref [] and extracted = ref [] in
      List.iter
        (function
          | Some k ->
              let e = Elt.of_priority k in
              Q.insert h e;
              inserted := e :: !inserted
          | None ->
              let e = Q.extract h in
              if not (Elt.is_none e) then extracted := e :: !extracted)
        ops;
      let ok_inv = Q.Debug.check_invariant q in
      let rest = Q.Debug.elements q in
      let ok_multi =
        List.sort compare !inserted = List.sort compare (List.rev_append rest !extracted)
      in
      Q.unregister h;
      ok_inv && ok_multi)

(* {2 Concurrent stress} *)

let concurrent_multiset (module Q : ZQ) ?(ops_per_thread = 20_000) ~params () =
  let q = Q.create ~params () in
  let ok, _ = Conc_util.multiset_stress (module Q) q ~threads:4 ~ops_per_thread in
  check Alcotest.bool "multiset preserved" true ok;
  check Alcotest.bool "invariant after stress" true (Q.Debug.check_invariant q);
  (* every worker unregistered, so nothing may remain staged locally *)
  check Alcotest.int "no stranded buffered elements" 0 (Q.Debug.buffered q)

(* The paper's evaluation ablates batch size, set capacity and lock
   discipline; generate the concurrent smoke tests over that matrix
   instead of hand-picking single points. Smaller per-thread op counts
   than the single-config stress keep the whole matrix affordable. *)
let concurrent_matrix =
  let pol_name = function P.Trylock -> "trylock" | P.Blocking -> "blocking" in
  List.concat_map
    (fun (batch, target_len) ->
      List.map
        (fun lock_policy ->
          let params = P.validate { P.default with P.batch; target_len; lock_policy } in
          let name =
            Printf.sprintf "concurrent multiset b=%d t=%d %s" batch target_len
              (pol_name lock_policy)
          in
          (name, `Slow, concurrent_multiset (module Zmsq.Default : ZQ) ~ops_per_thread:12_000 ~params))
        [ P.Trylock; P.Blocking ])
    [ (0, 8); (16, 16); (48, 72) ]

(* Buffered variants of the stress: local staging + bulk flushes racing
   extract-side claims and demand flushes across 4 domains. *)
let concurrent_buffered =
  List.map
    (fun (label, (module Q : ZQ), lock_policy) ->
      let params = P.validate { P.default with P.buffer_len = 16; lock_policy } in
      ( Printf.sprintf "concurrent multiset buffered (%s)" label,
        `Slow,
        concurrent_multiset (module Q) ~ops_per_thread:12_000 ~params ))
    [
      ("list trylock", (module List_q : ZQ), P.Trylock);
      ("array trylock", (module Zmsq.Default : ZQ), P.Trylock);
      ("mutex blocking", (module Zmsq.Mutex_q : ZQ), P.Blocking);
    ]

(* {2 Blocking} *)

let blocking_handoff (module Q : ZQ) () =
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let items = 5_000 in
  let consumers = 3 in
  let consumed = Atomic.make 0 in
  let poison = Elt.pack ~priority:0 ~payload:1 in
  let cons =
    Array.init consumers (fun _ ->
        Domain.spawn (fun () ->
            let h = Q.register q in
            let rec go n =
              let e = Q.extract_blocking h in
              if Elt.payload e = 1 then n
              else begin
                Atomic.incr consumed;
                go (n + 1)
              end
            in
            let n = go 0 in
            Q.unregister h;
            n))
  in
  let producer =
    Domain.spawn (fun () ->
        let h = Q.register q in
        let rng = Rng.create ~seed:0xB10C () in
        for _ = 1 to items do
          Q.insert h (Elt.pack ~priority:(1 + Rng.int rng 1_000_000) ~payload:0)
        done;
        (* Poison only once everything real has been consumed, so a relaxed
           extraction can never return a pill early. *)
        while Atomic.get consumed < items do
          Domain.cpu_relax ()
        done;
        for _ = 1 to consumers do
          Q.insert h poison
        done;
        Q.unregister h)
  in
  Domain.join producer;
  let total = Array.fold_left (fun a d -> a + Domain.join d) 0 cons in
  check Alcotest.int "all items consumed" items total;
  check Alcotest.int "counter agrees" items (Atomic.get consumed)

let test_extract_timeout () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let h = Q.register q in
  (* empty queue: timeout *)
  let t0 = Zmsq_util.Timing.now_ns () in
  let e = Q.extract_timeout h ~timeout_ns:10_000_000 in
  let dt = Zmsq_util.Timing.now_ns () - t0 in
  check Alcotest.bool "timed out empty" true (Elt.is_none e);
  check Alcotest.bool "respected deadline order of magnitude" true (dt < 1_000_000_000);
  (* element already present: immediate *)
  Q.insert h (Elt.of_priority 5);
  check Alcotest.int "immediate when present" 5
    (Elt.priority (Q.extract_timeout h ~timeout_ns:1_000_000));
  (* element arriving mid-wait: released *)
  let d =
    Domain.spawn (fun () ->
        let hp = Q.register q in
        Unix.sleepf 0.01;
        Q.insert hp (Elt.of_priority 77);
        Q.unregister hp)
  in
  let e = Q.extract_timeout h ~timeout_ns:2_000_000_000 in
  Domain.join d;
  check Alcotest.int "released mid-wait" 77 (Elt.priority e);
  Q.unregister h

(* Bug-A regression: the deadline path must end in one final non-blocking
   extract, so a zero (or negative) budget is a plain try-pop — never an
   unconditional miss on a nonempty queue. *)
let test_extract_timeout_zero_budget () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let h = Q.register q in
  check Alcotest.bool "empty: immediate none" true
    (Elt.is_none (Q.extract_timeout h ~timeout_ns:0));
  Q.insert h (Elt.of_priority 42);
  check Alcotest.int "zero budget claims a present element" 42
    (Elt.priority (Q.extract_timeout h ~timeout_ns:0));
  Q.insert h (Elt.of_priority 9);
  check Alcotest.int "negative budget behaves as try-pop" 9
    (Elt.priority (Q.extract_timeout h ~timeout_ns:(-5)));
  Q.unregister h

(* Deadline-arithmetic hardening: [now + max_int] used to wrap negative,
   silently degrading an "effectively infinite" budget into a try-pop.
   The clamp must saturate the deadline so a max_int budget waits for an
   element arriving tens of milliseconds later, and tiny sub-microsecond
   budgets must stay well-behaved (final-poll contract, no spin). *)
let test_extract_timeout_overflow_budgets () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let h = Q.register q in
  (* max_int budget on an empty queue must actually wait: an element
     inserted ~50ms later is received, not missed by an overflow-induced
     immediate poll. *)
  let d =
    Domain.spawn (fun () ->
        let hp = Q.register q in
        Unix.sleepf 0.05;
        Q.insert hp (Elt.of_priority 123);
        Q.unregister hp)
  in
  let t0 = Zmsq_util.Timing.now_ns () in
  let e = Q.extract_timeout h ~timeout_ns:max_int in
  let dt = Zmsq_util.Timing.now_ns () - t0 in
  Domain.join d;
  check Alcotest.int "max_int budget waits for arrival" 123 (Elt.priority e);
  check Alcotest.bool "actually blocked (>=10ms)" true (dt >= 10_000_000);
  (* min_int budget clamps to 0: plain try-pop semantics. *)
  Q.insert h (Elt.of_priority 7);
  check Alcotest.int "min_int budget is a try-pop" 7
    (Elt.priority (Q.extract_timeout h ~timeout_ns:min_int));
  check Alcotest.bool "min_int budget on empty: immediate none" true
    (Elt.is_none (Q.extract_timeout h ~timeout_ns:min_int));
  (* Sub-microsecond budgets terminate promptly and honor the final poll. *)
  let t0 = Zmsq_util.Timing.now_ns () in
  check Alcotest.bool "1ns budget on empty: none" true
    (Elt.is_none (Q.extract_timeout h ~timeout_ns:1));
  check Alcotest.bool "1ns budget bounded" true
    (Zmsq_util.Timing.now_ns () - t0 < 1_000_000_000);
  Q.insert h (Elt.of_priority 11);
  check Alcotest.int "1ns budget claims a present element" 11
    (Elt.priority (Q.extract_timeout h ~timeout_ns:1));
  Q.unregister h

(* The sharded deadline path shares the clamp (shards>1 exercises the
   combined family wait, not the single-queue delegation). *)
let test_shard_extract_timeout_overflow_budgets () =
  let module S = Zmsq.Shard.Default in
  let params = { (P.static 8) with P.blocking = true; P.shards = 4 } in
  let q = S.create ~params () in
  let h = S.register q in
  let d =
    Domain.spawn (fun () ->
        let hp = S.register q in
        Unix.sleepf 0.05;
        S.insert hp (Elt.of_priority 321);
        S.flush hp;
        S.unregister hp)
  in
  let e = S.extract_timeout h ~timeout_ns:max_int in
  Domain.join d;
  check Alcotest.int "sharded max_int budget waits for arrival" 321 (Elt.priority e);
  S.insert h (Elt.of_priority 5);
  S.flush h;
  check Alcotest.int "sharded min_int budget is a try-pop" 5
    (Elt.priority (S.extract_timeout h ~timeout_ns:min_int));
  check Alcotest.bool "sharded 1ns budget on empty: none" true
    (Elt.is_none (S.extract_timeout h ~timeout_ns:1));
  S.unregister h;
  S.close q

let test_blocking_requires_flag () =
  let q = Zmsq.Default.create () in
  let h = Zmsq.Default.register q in
  Alcotest.check_raises "no blocking flag"
    (Invalid_argument "Zmsq.extract_blocking: queue created without blocking") (fun () ->
      ignore (Zmsq.Default.extract_blocking h));
  Zmsq.Default.unregister h

(* {2 Ablation configurations stay correct} *)

let ablation_correct variant_name mutate () =
  let module Q = Zmsq.Default in
  let params = mutate (P.static 12) in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xAB1 () in
  let inserted = ref [] in
  for _ = 1 to 20_000 do
    let e = Elt.of_priority (Rng.int rng 100_000) in
    Q.insert h e;
    inserted := e :: !inserted
  done;
  if not (Q.Debug.check_invariant q) then Alcotest.failf "%s: invariant broken" variant_name;
  let extracted = Conc_util.drain (module Q) h in
  if List.sort compare !inserted <> List.sort compare extracted then
    Alcotest.failf "%s: multiset broken" variant_name;
  Q.unregister h

(* {2 Instrumentation} *)

let test_counters_fire () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.static 8) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xC0 () in
  for _ = 1 to 50_000 do
    Q.insert h (Elt.of_priority (Rng.int rng 1_000_000));
    if Rng.bool rng then ignore (Q.extract h)
  done;
  let c = Q.Debug.counters q in
  check Alcotest.bool "refills fired" true (c.Zmsq.refills > 0);
  check Alcotest.bool "forced inserts fired" true (c.Zmsq.forced_inserts > 0);
  check Alcotest.bool "min swaps fired" true (c.Zmsq.min_swaps > 0);
  check Alcotest.bool "expands fired" true (c.Zmsq.expands > 0);
  check Alcotest.bool "swap downs fired" true (c.Zmsq.swap_downs > 0);
  Q.unregister h

(* Hazard pointers are opt-in: the default queue builds no hazard domain,
   so no operation on it can publish one. *)
let test_hazard_stats_present () =
  let module Q = Zmsq.Default in
  let q = Q.create () in
  check Alcotest.bool "no hp stats by default" true (Q.Debug.hazard_domain_stats q = None);
  let safe = Q.create ~params:{ P.default with P.hazards = true } () in
  check Alcotest.bool "hp stats with hazards" true (Q.Debug.hazard_domain_stats safe <> None)

let test_pool_level () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.static 16) () in
  let h = Q.register q in
  for i = 1 to 100 do
    Q.insert h (Elt.of_priority i)
  done;
  check Alcotest.int "pool empty before extract" 0 (Q.Debug.pool_level q);
  ignore (Q.extract h);
  check Alcotest.bool "pool filled by refill" true (Q.Debug.pool_level q > 0);
  Q.unregister h

(* {2 Splits under tiny target_len} *)

let test_split_pressure () =
  let module Q = Zmsq.Default in
  (* Descending insertions at a tiny target force the split path. *)
  let q = Q.create ~params:P.(default |> with_batch 2 |> with_target_len 2) () in
  let h = Q.register q in
  let g = Zmsq_dist.Keys.make (Rng.create ~seed:3 ()) (Zmsq_dist.Keys.Descending { start = 50_000 }) in
  let inserted = ref [] in
  for _ = 1 to 20_000 do
    let e = Elt.of_priority (Zmsq_dist.Keys.next g) in
    Q.insert h e;
    inserted := e :: !inserted
  done;
  check Alcotest.bool "invariant under splits" true (Q.Debug.check_invariant q);
  let out = Conc_util.drain (module Q) h in
  check Alcotest.bool "multiset under splits" true
    (List.sort compare !inserted = List.sort compare out);
  Q.unregister h

(* {2 Deep swap-down}

   A tiny [target_len] and [batch] build a deep tree, so a refill's
   swap-down walks several levels, and every level hands the node caches
   over with the contents. [check_invariant], which compares every cache
   with its set, must hold after every extract. *)
let test_deep_swap_down () =
  let module Q = Zmsq.Default in
  let params = P.(default |> with_batch 2 |> with_target_len 2 |> with_seed 0x5D) in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0x5D () in
  let inserted = ref [] and extracted = ref [] in
  let insert () =
    let e = Elt.of_priority (Rng.int rng 1_000_000) in
    Q.insert h e;
    inserted := e :: !inserted
  in
  for _ = 1 to 4_000 do
    insert ()
  done;
  let deepest = ref 0 in
  for i = 1 to 6_000 do
    if Rng.int rng 3 = 0 then insert ()
    else begin
      let before = (Q.Debug.counters q).Zmsq.swap_downs in
      let e = Q.extract h in
      if not (Elt.is_none e) then extracted := e :: !extracted;
      deepest := max !deepest ((Q.Debug.counters q).Zmsq.swap_downs - before);
      if not (Q.Debug.check_invariant q) then Alcotest.failf "invariant broken after op %d" i
    end
  done;
  Printf.printf "deepest swap-down: %d levels\n" !deepest;
  check Alcotest.bool "a swap-down crossed 3+ levels" true (!deepest >= 3);
  let rest = Conc_util.drain (module Q) h in
  check Alcotest.bool "multiset" true
    (List.sort compare !inserted = List.sort compare (List.rev_append rest !extracted));
  Q.unregister h

let test_peek_and_is_empty () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.static 4) () in
  let h = Q.register q in
  check Alcotest.bool "empty at start" true (Q.is_empty q);
  check Alcotest.bool "peek none" true (Elt.is_none (Q.peek q));
  for k = 1 to 50 do
    Q.insert h (Elt.of_priority k)
  done;
  check Alcotest.bool "nonempty" false (Q.is_empty q);
  check Alcotest.int "peek sees max" 50 (Elt.priority (Q.peek q));
  (* after a refill, peek reads the pool's next claim *)
  let first = Q.extract h in
  check Alcotest.int "extracted max" 50 (Elt.priority first);
  let p = Q.peek q in
  check Alcotest.bool "peek nonnone with pool live" false (Elt.is_none p);
  check Alcotest.int "peek equals next extract" (Elt.priority (Q.extract h)) (Elt.priority p);
  Q.unregister h

(* Regression: tiny target_len must not blow the tree up (previously,
   split cascades at the leaf boundary forced an expansion per split and
   the tree reached 2^27 nodes before the OOM killer fired). *)
let test_tiny_target_len_bounded_tree () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:P.(default |> with_batch 1 |> with_target_len 1) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0x00D () in
  for _ = 1 to 30_000 do
    Q.insert h (Elt.of_priority (Rng.int rng 1_000_000))
  done;
  (* 30K elements need ~15 levels at 1-2 per node; anything much deeper is
     the old runaway. *)
  check Alcotest.bool "tree depth bounded" true (Q.Debug.leaf_level q < 20);
  check Alcotest.int "all elements present" 30_000 (Q.length q);
  check Alcotest.bool "invariant" true (Q.Debug.check_invariant q);
  let out = Conc_util.drain (module Q) h in
  check Alcotest.int "all extractable" 30_000 (List.length out);
  Q.unregister h

(* {2 Per-handle insert buffering} *)

let buffered_params ?(batch = 0) ?(buffer_len = 8) () =
  P.validate { P.strict with P.batch; target_len = 16; buffer_len }

let test_buffer_params_validate () =
  Alcotest.check_raises "negative buffer_len"
    (Invalid_argument "Params: buffer_len must be >= 0") (fun () ->
      ignore (P.validate { P.default with P.buffer_len = -1 }));
  Alcotest.check_raises "buffer_len beyond target_len"
    (Invalid_argument "Params: buffer_len must be <= target_len") (fun () ->
      ignore (P.validate { P.default with P.target_len = 8; buffer_len = 9 }));
  check Alcotest.int "default off" 0 P.default.P.buffer_len;
  check Alcotest.int "with_buffer_len" 8 P.(default |> with_buffer_len 8).P.buffer_len

(* One element stays local (the initial fill threshold is buffer_len/4 =
   2); an explicit flush publishes it into the tree. *)
let test_buffer_stage_and_flush () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 1);
  check Alcotest.int "staged locally" 1 (Q.Debug.buffered q);
  check Alcotest.int "not yet published" 0 (Q.length q);
  Q.flush h;
  check Alcotest.int "buffer drained" 0 (Q.Debug.buffered q);
  check Alcotest.int "published" 1 (Q.length q);
  let c = Q.Debug.counters q in
  check Alcotest.bool "flush counted" true (c.Zmsq.buf_flushes > 0);
  check Alcotest.int "element survives the flush" 1 (Elt.priority (Q.extract h));
  check Alcotest.bool "empty after" true (Elt.is_none (Q.extract h));
  Q.unregister h

(* Reaching the fill threshold publishes the whole buffer in one bulk
   insertion, without any explicit flush. *)
let test_buffer_fill_triggers_flush () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 3);
  Q.insert h (Elt.of_priority 7);
  check Alcotest.int "auto-flushed at threshold" 0 (Q.Debug.buffered q);
  check Alcotest.int "both published" 2 (Q.length q);
  check Alcotest.int "max first" 7 (Elt.priority (Q.extract h));
  check Alcotest.int "then the other" 3 (Elt.priority (Q.extract h));
  Q.unregister h

(* A staged element that beats everything published is claimed straight
   from the owner's buffer. *)
let test_buffer_local_claim () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 5);
  check Alcotest.int "staged" 1 (Q.Debug.buffered q);
  check Alcotest.int "claimed from own buffer" 5 (Elt.priority (Q.extract h));
  check Alcotest.int "buffer empty after claim" 0 (Q.Debug.buffered q);
  let c = Q.Debug.counters q in
  check Alcotest.bool "claim counted" true (c.Zmsq.buf_claims > 0);
  Q.unregister h

(* Unregistering flushes the backlog: elements are never stranded in a
   dead handle's buffer. *)
let test_buffer_unregister_flushes () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h1 = Q.register q in
  Q.insert h1 (Elt.of_priority 9);
  check Alcotest.int "staged on h1" 1 (Q.Debug.buffered q);
  Q.unregister h1;
  check Alcotest.int "flushed by unregister" 0 (Q.Debug.buffered q);
  let h2 = Q.register q in
  check Alcotest.int "recovered via fresh handle" 9 (Elt.priority (Q.extract h2));
  Q.unregister h2

(* A consumer that finds the shared structure empty while another
   handle holds a backlog raises the flush demand; the producer honors
   it on its next insert, publishing the stranded element. *)
let test_buffer_demand_flush () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let producer = Q.register q in
  let consumer = Q.register q in
  Q.insert producer (Elt.of_priority 7);
  check Alcotest.int "staged on producer" 1 (Q.Debug.buffered q);
  (* consumer can't see it yet: it reports empty and raises the demand *)
  check Alcotest.bool "consumer misses staged element" true
    (Elt.is_none (Q.extract consumer));
  Q.insert producer (Elt.of_priority 3);
  check Alcotest.int "demand flush published the backlog" 0 (Q.Debug.buffered q);
  check Alcotest.int "consumer now sees the max" 7 (Elt.priority (Q.extract consumer));
  check Alcotest.int "and the rest" 3 (Elt.priority (Q.extract consumer));
  Q.unregister producer;
  Q.unregister consumer

(* Bug-B regression: a pending flush demand must cover the element being
   inserted, not just the pre-existing backlog. With buffer_len = 16 the
   demand-halved fill threshold stays at 2, so under the old
   check-demand-then-stage order the second insert stayed staged
   (buffered = 1, length = 1) — invisible forever if the producer never
   inserts again. *)
let test_buffer_demand_covers_current_insert () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ~buffer_len:16 ()) () in
  let producer = Q.register q in
  let consumer = Q.register q in
  Q.insert producer (Elt.of_priority 7);
  check Alcotest.bool "consumer misses staged element" true
    (Elt.is_none (Q.extract consumer));
  Q.insert producer (Elt.of_priority 3);
  check Alcotest.int "demand flush covered the insert itself" 0 (Q.Debug.buffered q);
  check Alcotest.int "both elements published" 2 (Q.length q);
  check Alcotest.int "consumer sees the max" 7 (Elt.priority (Q.extract consumer));
  check Alcotest.int "and the rest" 3 (Elt.priority (Q.extract consumer));
  Q.unregister producer;
  Q.unregister consumer

(* buffer_len = 0 must be bit-for-bit the unbuffered queue: the buffering
   paths never run. *)
let test_buffer_zero_inert () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.static 8) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xB0F () in
  for _ = 1 to 10_000 do
    Q.insert h (Elt.of_priority (Rng.int rng 1_000_000));
    if Rng.bool rng then ignore (Q.extract h)
  done;
  Q.flush h (* a no-op without buffering *);
  check Alcotest.int "nothing ever buffered" 0 (Q.Debug.buffered q);
  let c = Q.Debug.counters q in
  check Alcotest.int "no flushes" 0 c.Zmsq.buf_flushes;
  check Alcotest.int "no claims" 0 c.Zmsq.buf_claims;
  Q.unregister h

(* Strict single-handle extraction order survives buffering: the local
   claim rule only fires when the staged head beats everything
   published. *)
let test_buffer_strict_order () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ~buffer_len:16 ()) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xB1F () in
  let keys = Array.init 5_000 (fun _ -> Rng.int rng 1_000_000) in
  Array.iter (fun k -> Q.insert h (Elt.of_priority k)) keys;
  let sorted = Array.copy keys in
  Array.sort (fun a b -> compare b a) sorted;
  Array.iteri
    (fun i want ->
      let e = Q.extract h in
      if Elt.priority e <> want then
        Alcotest.failf "buffered strict order broken at %d: got %d want %d" i
          (Elt.priority e) want)
    sorted;
  check Alcotest.bool "drained" true (Elt.is_none (Q.extract h));
  Q.unregister h

(* {2 Lifecycle: close, drain, orphaned-handle reclamation} *)

let lifecycle_check name want q =
  let module Q = Zmsq.Default in
  let show = function
    | Zmsq.Open -> "open"
    | Zmsq.Draining -> "draining"
    | Zmsq.Closed -> "closed"
  in
  check Alcotest.string name (show want) (show (Q.lifecycle q))

(* [close] flips the state atomically: inserts fail with [Queue_closed]
   and admit nothing, while already-published elements stay claimable. *)
let test_close_rejects_insert () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.static 8) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 4);
  Q.insert h (Elt.of_priority 9);
  lifecycle_check "open before close" Zmsq.Open q;
  Q.close q;
  lifecycle_check "closed after close" Zmsq.Closed q;
  Alcotest.check_raises "insert rejected" Zmsq.Queue_closed (fun () ->
      Q.insert h (Elt.of_priority 1));
  check Alcotest.int "rejected element not admitted" 2
    (Q.length q + Q.Debug.buffered q);
  check Alcotest.int "published elements survive close" 9
    (Elt.priority (Q.extract h));
  check Alcotest.int "all of them" 4 (Elt.priority (Q.extract h));
  check Alcotest.bool "then empty" true (Elt.is_none (Q.extract h));
  Q.close q (* idempotent *);
  Q.unregister h

(* [close] wakes a consumer blocked in [extract_blocking]: it returns
   [none] (the closed-and-empty outcome) instead of sleeping forever. *)
let test_close_wakes_blocking_extractor () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let consumer =
    Domain.spawn (fun () ->
        let h = Q.register q in
        let v = Q.extract_blocking h in
        Q.unregister h;
        Elt.is_none v)
  in
  (* Wait until the consumer is actually asleep before closing. *)
  let rec await_sleeper spins =
    match Q.Debug.eventcount_stats q with
    | Some (sleeps, _) when sleeps >= 1 -> ()
    | _ ->
        if spins > 10_000_000 then Alcotest.fail "consumer never slept";
        Domain.cpu_relax ();
        await_sleeper (spins + 1)
  in
  await_sleeper 0;
  Q.close q;
  check Alcotest.bool "woken with closed-and-empty" true (Domain.join consumer);
  lifecycle_check "closed" Zmsq.Closed q

(* [close ~drain:true]: inserts are rejected immediately, extraction
   stays live until exactly empty — including staged elements — and the
   observation of emptiness advances the state to [Closed]. *)
let test_close_drain_exactness () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ~buffer_len:16 ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 3);
  Q.insert h (Elt.of_priority 8);
  Q.insert h (Elt.of_priority 5);
  (* all three sit under the fill threshold: drain must cover staged too *)
  check Alcotest.bool "something staged" true (Q.Debug.buffered q > 0);
  Q.close ~drain:true q;
  lifecycle_check "draining while nonempty" Zmsq.Draining q;
  Alcotest.check_raises "insert rejected while draining" Zmsq.Queue_closed
    (fun () -> Q.insert h (Elt.of_priority 1));
  (* The owner's extracts drain everything, staged backlog included. *)
  check Alcotest.int "drain order 1" 8 (Elt.priority (Q.extract h));
  check Alcotest.int "drain order 2" 5 (Elt.priority (Q.extract h));
  lifecycle_check "still draining with one element left" Zmsq.Draining q;
  check Alcotest.int "drain order 3" 3 (Elt.priority (Q.extract h));
  check Alcotest.bool "exactly empty" true (Elt.is_none (Q.extract h));
  lifecycle_check "drain completion closed the queue" Zmsq.Closed q;
  Q.unregister h

(* [close ~drain:true] on an already-empty queue closes immediately, and
   a blocked consumer drains every element before seeing the closed
   outcome (conservation across the drain). *)
let test_drain_handoff_conservation () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let n = 1000 in
  let consumer =
    Domain.spawn (fun () ->
        let h = Q.register q in
        let rec go acc =
          let e = Q.extract_blocking h in
          if Elt.is_none e then acc else go (acc + 1)
        in
        let got = go 0 in
        Q.unregister h;
        got)
  in
  let h = Q.register q in
  for i = 1 to n do
    Q.insert h (Elt.of_priority i)
  done;
  Q.close ~drain:true q;
  check Alcotest.int "consumer drained every element" n (Domain.join consumer);
  lifecycle_check "closed once empty" Zmsq.Closed q;
  Q.unregister h;
  let q2 = Q.create ~params () in
  Q.close ~drain:true q2;
  lifecycle_check "empty drain closes immediately" Zmsq.Closed q2

(* A closed queue turns [extract_timeout] into an immediate [none]
   rather than a burned deadline; [lifecycle] disambiguates it from a
   timeout. *)
let test_extract_timeout_closed_immediate () =
  let module Q = Zmsq.Default in
  let params = { (P.static 8) with P.blocking = true } in
  let q = Q.create ~params () in
  let h = Q.register q in
  Q.close q;
  let t0 = Zmsq_util.Timing.now_ns () in
  let v = Q.extract_timeout h ~timeout_ns:10_000_000_000 in
  let elapsed_ns = Zmsq_util.Timing.now_ns () - t0 in
  check Alcotest.bool "closed-and-empty outcome" true (Elt.is_none v);
  check Alcotest.bool "returned immediately, not at the deadline" true
    (elapsed_ns < 2_000_000_000);
  lifecycle_check "disambiguated as closed" Zmsq.Closed q;
  check Alcotest.bool "blocking extract also immediate" true
    (Elt.is_none (Q.extract_blocking h));
  Q.unregister h

(* Satellite: use-after-unregister fails loudly instead of corrupting
   recycled buffer/hazard state. *)
let test_use_after_unregister () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 1);
  Q.unregister h;
  Alcotest.check_raises "insert after unregister"
    (Invalid_argument "Zmsq.insert: handle was unregistered") (fun () ->
      Q.insert h (Elt.of_priority 2));
  Alcotest.check_raises "extract after unregister"
    (Invalid_argument "Zmsq.extract: handle was unregistered") (fun () ->
      ignore (Q.extract h));
  Alcotest.check_raises "flush after unregister"
    (Invalid_argument "Zmsq.flush: handle was unregistered") (fun () ->
      Q.flush h);
  Alcotest.check_raises "double unregister"
    (Invalid_argument "Zmsq.unregister: handle already unregistered") (fun () ->
      Q.unregister h)

(* The scavenger: an orphaned handle's staged backlog is published, its
   registry slot released, and any further use of the dead handle raises. *)
let test_orphan_reclaim_publishes () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let dead = Q.register q in
  let live = Q.register q in
  Q.insert dead (Elt.of_priority 42);
  check Alcotest.int "backlog staged" 1 (Q.Debug.buffered q);
  check Alcotest.int "two live handles" 2 (Q.Debug.live_handles q);
  Q.orphan dead;
  check Alcotest.bool "orphaned" true (Q.handle_state dead = Zmsq.Orphaned);
  check Alcotest.int "scavenger published the backlog" 1 (Q.reclaim_orphans q);
  check Alcotest.bool "reclaimed" true (Q.handle_state dead = Zmsq.Reclaimed);
  check Alcotest.int "nothing staged" 0 (Q.Debug.buffered q);
  check Alcotest.int "registry slot released" 1 (Q.Debug.live_handles q);
  check Alcotest.int "element recovered" 42 (Elt.priority (Q.extract live));
  let c = Q.Debug.counters q in
  check Alcotest.int "reclaim counted" 1 c.Zmsq.orphan_reclaims;
  Alcotest.check_raises "dead handle unusable"
    (Invalid_argument "Zmsq.insert: handle was orphaned and reclaimed")
    (fun () -> Q.insert dead (Elt.of_priority 1));
  Alcotest.check_raises "dead handle not unregisterable"
    (Invalid_argument "Zmsq.unregister: handle was orphaned and reclaimed")
    (fun () -> Q.unregister dead);
  check Alcotest.int "idempotent scavenge" 0 (Q.reclaim_orphans q);
  Q.unregister live

(* An owner wrongly presumed dead resurrects its handle on its next
   operation; the scavenger then finds nothing to claim. *)
let test_orphan_resurrection () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let h = Q.register q in
  Q.insert h (Elt.of_priority 6);
  Q.orphan h;
  check Alcotest.bool "orphaned" true (Q.handle_state h = Zmsq.Orphaned);
  (* the owner turns out to be alive: its next op wins the CAS race *)
  Q.insert h (Elt.of_priority 2);
  check Alcotest.bool "resurrected" true (Q.handle_state h = Zmsq.Live);
  check Alcotest.int "nothing for the scavenger" 0 (Q.reclaim_orphans q);
  check Alcotest.int "handle still registered" 1 (Q.Debug.live_handles q);
  Q.flush h;
  check Alcotest.int "owner's elements intact" 6 (Elt.priority (Q.extract h));
  check Alcotest.int "all of them" 2 (Elt.priority (Q.extract h));
  Q.unregister h;
  check Alcotest.int "orphan is a no-op on non-live handles" 0
    (Q.reclaim_orphans q)

(* The piggyback: a consumer that finds the tree empty while a dead
   producer holds the only elements scavenges the orphan inline rather
   than reporting a spurious empty. *)
let test_extract_piggyback_reclaim () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(buffered_params ()) () in
  let dead = Q.register q in
  let consumer = Q.register q in
  Q.insert dead (Elt.of_priority 11);
  Q.orphan dead;
  (* no explicit reclaim_orphans: extract must do it *)
  check Alcotest.int "extract scavenged the dead producer's backlog" 11
    (Elt.priority (Q.extract consumer));
  check Alcotest.bool "dead handle reclaimed" true
    (Q.handle_state dead = Zmsq.Reclaimed);
  let c = Q.Debug.counters q in
  check Alcotest.int "piggybacked reclaim counted" 1 c.Zmsq.orphan_reclaims;
  check Alcotest.bool "queue now truly empty" true
    (Elt.is_none (Q.extract consumer));
  Q.unregister consumer

(* {2 Sharded lifecycle: close/drain fan-out, orphan reclamation}

   The outer queue is [shards] independent lifecycle machines; these tests
   pin the fan-out contract — a close poisons every shard, a drain
   completes only when every shard is exactly empty, and the outer orphan
   protocol scavenges staged backlogs across all shards. *)

module SQ = Zmsq.Shard.Default

let shard_params ?(shards = 4) ?(buffer_len = 0) () =
  P.validate
    {
      P.default with
      P.batch = 4;
      target_len = 16;
      buffer_len;
      shards;
      stickiness = 2;
      seed = Some 7;
    }

let shard_lifecycle_check name want q =
  let show = function
    | Zmsq.Open -> "open"
    | Zmsq.Draining -> "draining"
    | Zmsq.Closed -> "closed"
  in
  check Alcotest.string name (show want) (show (SQ.lifecycle q))

let shard_drain h =
  let rec go acc =
    let v = SQ.extract h in
    if Elt.is_none v then acc else go (v :: acc)
  in
  go []

(* [close] fans out: every shard rejects inserts, already-published
   elements on every shard stay claimable, and the close is idempotent. *)
let test_shard_close_rejects_insert () =
  let q = SQ.create ~params:(shard_params ()) () in
  let h = SQ.register q in
  for k = 1 to 20 do
    SQ.insert h (Elt.of_priority k)
  done;
  shard_lifecycle_check "open before close" Zmsq.Open q;
  SQ.close q;
  shard_lifecycle_check "closed after close" Zmsq.Closed q;
  Alcotest.check_raises "insert rejected" Zmsq.Queue_closed (fun () ->
      SQ.insert h (Elt.of_priority 1));
  check Alcotest.int "rejected element not admitted" 20
    (SQ.length q + SQ.Debug.buffered q);
  let out = List.sort compare (List.map Elt.priority (shard_drain h)) in
  check Alcotest.(list int) "published elements on every shard survive close"
    (List.init 20 (fun i -> i + 1)) out;
  SQ.close q (* idempotent *);
  SQ.unregister h

(* [close ~drain:true]: inserts are rejected immediately on every shard,
   extraction stays live until the whole family is exactly empty — staged
   buffers included — and the last shard's emptiness closes the queue. *)
let test_shard_drain_exactness () =
  let q = SQ.create ~params:(shard_params ~buffer_len:16 ()) () in
  let h = SQ.register q in
  SQ.insert h (Elt.of_priority 3);
  SQ.insert h (Elt.of_priority 8);
  SQ.insert h (Elt.of_priority 5);
  (* all three sit under the fill threshold: the drain must cover staged *)
  check Alcotest.bool "something staged" true (SQ.Debug.buffered q > 0);
  SQ.close ~drain:true q;
  shard_lifecycle_check "draining while nonempty" Zmsq.Draining q;
  Alcotest.check_raises "insert rejected while draining" Zmsq.Queue_closed
    (fun () -> SQ.insert h (Elt.of_priority 1));
  let out = List.sort compare (List.map Elt.priority (shard_drain h)) in
  check Alcotest.(list int) "drain exact across shards" [ 3; 5; 8 ] out;
  shard_lifecycle_check "drain completion closed the queue" Zmsq.Closed q;
  check Alcotest.int "nothing staged" 0 (SQ.Debug.buffered q);
  Array.iteri
    (fun i n -> if n <> 0 then Alcotest.failf "shard %d not drained: %d left" i n)
    (SQ.shard_sizes q);
  SQ.unregister h

(* [close] unparks blocking extractors no matter which shard each one
   chose to nap on: every waiter returns the closed-and-empty outcome
   instead of sleeping past shutdown. *)
let test_shard_close_wakes_blocking_extractors () =
  let params =
    P.validate { (shard_params ()) with P.blocking = true; lock_policy = P.Blocking }
  in
  let q = SQ.create ~params () in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let h = SQ.register q in
            let v = SQ.extract_blocking h in
            SQ.unregister h;
            Elt.is_none v))
  in
  (* Give the consumers a moment to reach their park slices, then close. *)
  Unix.sleepf 0.05;
  SQ.close q;
  List.iter
    (fun d -> check Alcotest.bool "woken with closed-and-empty" true (Domain.join d))
    consumers;
  shard_lifecycle_check "closed" Zmsq.Closed q

(* The outer orphan protocol: a dead producer's staged backlog — spread
   over several shards by sticky routing — is published by the scavenger,
   and a consumer's extract piggybacks the reclaim rather than reporting
   a spurious empty. *)
let test_shard_orphan_reclaim () =
  let q = SQ.create ~params:(shard_params ~buffer_len:16 ()) () in
  let dead = SQ.register q in
  let live = SQ.register q in
  SQ.insert dead (Elt.of_priority 42);
  SQ.insert dead (Elt.of_priority 17);
  SQ.insert dead (Elt.of_priority 29);
  check Alcotest.bool "backlog staged" true (SQ.Debug.buffered q > 0);
  check Alcotest.int "two live handles" 2 (SQ.Debug.live_handles q);
  SQ.orphan dead;
  check Alcotest.bool "orphaned" true (SQ.handle_state dead = Zmsq.Orphaned);
  (* no explicit reclaim_orphans: the consumer's extract must scavenge *)
  let out = List.sort compare (List.map Elt.priority (shard_drain live)) in
  check Alcotest.(list int) "extract scavenged the dead producer's backlog"
    [ 17; 29; 42 ] out;
  check Alcotest.bool "dead handle reclaimed" true
    (SQ.handle_state dead = Zmsq.Reclaimed);
  check Alcotest.int "registry slot released" 1 (SQ.Debug.live_handles q);
  check Alcotest.int "idempotent scavenge" 0 (SQ.reclaim_orphans q);
  Alcotest.check_raises "dead handle unusable"
    (Invalid_argument "Zmsq_shard.insert: handle was orphaned and reclaimed")
    (fun () -> SQ.insert dead (Elt.of_priority 1));
  SQ.unregister live

(* An outer owner wrongly presumed dead resurrects on its next operation;
   the scavenger then finds nothing and the owner's elements are intact. *)
let test_shard_orphan_resurrection () =
  let q = SQ.create ~params:(shard_params ~buffer_len:16 ()) () in
  let h = SQ.register q in
  SQ.insert h (Elt.of_priority 6);
  SQ.orphan h;
  check Alcotest.bool "orphaned" true (SQ.handle_state h = Zmsq.Orphaned);
  SQ.insert h (Elt.of_priority 2);
  check Alcotest.bool "resurrected" true (SQ.handle_state h = Zmsq.Live);
  check Alcotest.int "nothing for the scavenger" 0 (SQ.reclaim_orphans q);
  let out = List.sort compare (List.map Elt.priority (shard_drain h)) in
  check Alcotest.(list int) "owner's elements intact" [ 2; 6 ] out;
  SQ.unregister h

(* Randomized lifecycle: random shard counts, stickiness, buffering and
   handle fates (orphaned / unregistered / draining owner), then a full
   drain — conservation must hold, every shard must end exactly empty,
   and the family must converge to [Closed]. *)
let test_shard_lifecycle_randomized () =
  let rng = Zmsq_util.Rng.create ~seed:0xD00D () in
  for round = 1 to 6 do
    let shards = 1 + Zmsq_util.Rng.int rng 4 in
    let buffer_len = if Zmsq_util.Rng.int rng 2 = 0 then 0 else 8 in
    let params =
      P.validate
        {
          P.default with
          P.batch = (if Zmsq_util.Rng.int rng 2 = 0 then 0 else 4);
          target_len = 16;
          buffer_len;
          shards;
          stickiness = 1 + Zmsq_util.Rng.int rng 4;
          seed = Some (0xBEE + round);
        }
    in
    let q = SQ.create ~params () in
    let handles = Array.init 3 (fun _ -> SQ.register q) in
    let inserted = ref 0 in
    for _ = 1 to 200 do
      let h = handles.(Zmsq_util.Rng.int rng 3) in
      SQ.insert h (Elt.of_priority (1 + Zmsq_util.Rng.int rng 1000));
      incr inserted
    done;
    (* one producer dies, one retires cleanly, one drains the queue *)
    SQ.orphan handles.(0);
    SQ.unregister handles.(1);
    SQ.close ~drain:true q;
    let extracted = List.length (shard_drain handles.(2)) in
    if extracted <> !inserted then
      Alcotest.failf "round %d: conservation broken: %d in, %d out" round !inserted
        extracted;
    shard_lifecycle_check "closed after drain" Zmsq.Closed q;
    check Alcotest.bool "sharded invariant" true (SQ.Debug.check_invariant q);
    Array.iteri
      (fun i n ->
        if n <> 0 then Alcotest.failf "round %d: shard %d not drained" round i)
      (SQ.shard_sizes q);
    check Alcotest.int "nothing staged" 0 (SQ.Debug.buffered q);
    SQ.unregister handles.(2);
    check Alcotest.int "no live handles" 0 (SQ.Debug.live_handles q)
  done

(* {2 Allocation ceiling}

   Steady-state single-handle insert+extract pairs on [Zmsq.Default]
   (seeded params, counters on, a 10k-element queue, keys drawn before
   the measured loop) must not allocate more minor words per pair than
   [alloc_words_per_pair]. OCaml 5's minor GC stops every domain, so
   allocation on the hot path is a pause for all of them. The ceiling is
   the value last measured (73.8 words once the array set sorted in
   place; 81.6 while it sorted a copy, 148 with hazard pointers on the
   default path, 173 before [Rng] stopped boxing its state, and the list
   set reads 551) plus rounding; it only ever moves down. *)
let alloc_words_per_pair = 75.0

let test_alloc_ceiling () =
  let module Q = Zmsq.Default in
  let params = { P.default with P.seed = Some 0xA11C; obs = Zmsq_obs.Level.Counters } in
  let q = Q.create ~params () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xA11C () in
  let keys = Array.init 40_000 (fun _ -> Elt.of_priority (Rng.int rng (1 lsl 20))) in
  for i = 0 to 9_999 do
    Q.insert h keys.(i)
  done;
  let pairs lo hi =
    for i = lo to hi - 1 do
      Q.insert h keys.(i);
      ignore (Q.extract h)
    done
  in
  pairs 10_000 20_000;
  let w0 = Gc.minor_words () in
  pairs 20_000 40_000;
  let per_pair = (Gc.minor_words () -. w0) /. 20_000.0 in
  Printf.printf "alloc: %.1f minor words per insert+extract pair\n" per_pair;
  if per_pair > alloc_words_per_pair then
    Alcotest.failf "%.1f minor words per pair > ceiling %.1f" per_pair alloc_words_per_pair;
  Q.unregister h

(* {2 Pinned decision stream}

   One seeded handle on [Zmsq.Default]: a preload, then a seeded mix of
   inserts and extracts. The hash of the extracted stream is pinned, so a
   change to how the core does its work (how a set sorts, how a cache is
   kept) cannot silently change which element an extract returns. A change
   that means to alter the decisions re-pins the value and says why. *)
let decision_stream_hash = 3461587797687664640

let test_decision_stream () =
  let module Q = Zmsq.Default in
  let q = Q.create ~params:(P.with_seed 0xD5 P.default) () in
  let h = Q.register q in
  let rng = Rng.create ~seed:0xD5 () in
  let key () = Elt.of_priority (Rng.int rng (1 lsl 20)) in
  for _ = 1 to 20_000 do
    Q.insert h (key ())
  done;
  let hash = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bool rng then Q.insert h (key ())
    else begin
      let e = Q.extract h in
      hash := ((!hash * 1_000_003) lxor e) land max_int
    end
  done;
  Printf.printf "decision stream hash: %d\n" !hash;
  check Alcotest.int "extract stream hash" decision_stream_hash !hash;
  Q.unregister h

let mk name f = (name, `Quick, f)

let suite =
  [
    mk "params validate" test_params_validate;
    mk "params dynamic" test_params_dynamic;
    mk "strict exact (list)" (strict_exact (module List_q));
    mk "strict exact (array)" (strict_exact (module Zmsq.Default));
    mk "strict exact (mutex lock)" (strict_exact (module Zmsq.Mutex_q));
    mk "strict exact (tas lock)" (strict_exact (module Zmsq.Tas_q));
    mk "exact emptiness (list)" (exact_emptiness (module List_q));
    mk "exact emptiness (array)" (exact_emptiness (module Zmsq.Default));
    mk "relaxation bound b=4 (list)" (relaxation_bound (module List_q) ~batch:4 ~target_len:16);
    mk "relaxation bound b=16 (list)" (relaxation_bound (module List_q) ~batch:16 ~target_len:32);
    mk "relaxation bound b=16 (array)" (relaxation_bound (module Zmsq.Default) ~batch:16 ~target_len:32);
    qtest (prop_random_ops (module List_q) "zmsq-list");
    qtest (prop_random_ops (module Zmsq.Default) "zmsq-array");
    ("concurrent multiset (array)", `Slow,
      concurrent_multiset (module Zmsq.Default) ~ops_per_thread:20_000 ~params:(P.static 16));
    ("concurrent multiset (mutex blocking)", `Slow,
      concurrent_multiset (module Zmsq.Mutex_q) ~ops_per_thread:20_000
        ~params:{ (P.static 16) with P.lock_policy = P.Blocking });
    ("blocking handoff", `Slow, blocking_handoff (module Zmsq.Default));
    mk "extract_timeout" test_extract_timeout;
    mk "extract_timeout zero budget" test_extract_timeout_zero_budget;
    ("extract_timeout overflow budgets", `Slow, test_extract_timeout_overflow_budgets);
    ("shard extract_timeout overflow budgets", `Slow,
     test_shard_extract_timeout_overflow_budgets);
    mk "blocking requires flag" test_blocking_requires_flag;
    mk "ablation no-forced" (ablation_correct "no-forced" (fun p -> { p with P.forced_insert = false }));
    mk "ablation no-minswap" (ablation_correct "no-minswap" (fun p -> { p with P.min_swap = false }));
    mk "ablation no-split" (ablation_correct "no-split" (fun p -> { p with P.split = false }));
    mk "counters fire" test_counters_fire;
    mk "hazard stats presence" test_hazard_stats_present;
    mk "pool level" test_pool_level;
    mk "split pressure" test_split_pressure;
    mk "tiny target_len bounded tree" test_tiny_target_len_bounded_tree;
    mk "deep swap-down keeps caches" test_deep_swap_down;
    mk "peek and is_empty" test_peek_and_is_empty;
    mk "alloc ceiling insert+extract pair" test_alloc_ceiling;
    mk "pinned decision stream" test_decision_stream;
    mk "buffer params validate" test_buffer_params_validate;
    mk "buffer stage and flush" test_buffer_stage_and_flush;
    mk "buffer fill triggers flush" test_buffer_fill_triggers_flush;
    mk "buffer local claim" test_buffer_local_claim;
    mk "buffer unregister flushes" test_buffer_unregister_flushes;
    mk "buffer demand flush" test_buffer_demand_flush;
    mk "buffer demand covers current insert" test_buffer_demand_covers_current_insert;
    mk "buffer_len=0 inert" test_buffer_zero_inert;
    mk "buffer strict order" test_buffer_strict_order;
    mk "close rejects insert" test_close_rejects_insert;
    mk "close wakes blocking extractor" test_close_wakes_blocking_extractor;
    mk "close drain exactness" test_close_drain_exactness;
    ("drain handoff conservation", `Slow, test_drain_handoff_conservation);
    mk "extract_timeout on closed queue" test_extract_timeout_closed_immediate;
    mk "use after unregister" test_use_after_unregister;
    mk "orphan reclaim publishes backlog" test_orphan_reclaim_publishes;
    mk "orphan resurrection" test_orphan_resurrection;
    mk "extract piggybacks orphan reclaim" test_extract_piggyback_reclaim;
    mk "shard close rejects insert" test_shard_close_rejects_insert;
    mk "shard drain exactness" test_shard_drain_exactness;
    ("shard close wakes blocking extractors", `Slow,
      test_shard_close_wakes_blocking_extractors);
    mk "shard orphan reclaim across shards" test_shard_orphan_reclaim;
    mk "shard orphan resurrection" test_shard_orphan_resurrection;
    ("shard lifecycle randomized", `Slow, test_shard_lifecycle_randomized);
  ]
  @ concurrent_matrix @ concurrent_buffered

(* The model-checked scenario suite.

   Regression scenarios run the *real* functorized modules (Eventcount,
   Hazard, Lock, Zmsq) under the schedulable primitives and must pass;
   seeded-bug scenarios run deliberately broken protocols and must fail
   with a replayable trace — they are the checker's own regression tests:
   if a seeded bug stops being detected, the checker lost coverage. *)

module P = Shim.Prim
module EC = Zmsq_sync.Eventcount.Make (Shim.Prim)
module HP = Zmsq_hp.Hazard.Make (Shim.Prim)
module ML = Zmsq_sync.Lock.Make (Shim.Prim)
module Elt = Zmsq_pq.Elt

(* A model-level gate for scenario choreography: [wait] blocks through the
   scheduler's enabledness (not a spin loop, so DFS stays finite) until
   [set] has run. Gates order scenario *phases* — e.g. "the one-shot
   producer inserts only after the consumer's demand is up" — without
   constraining the interleavings inside each phase. *)
let gate () =
  let obj = Sched.fresh_obj () in
  let flag = ref false in
  let set () = Sched.simple ~kind:Sched.Set ~obj (fun () -> flag := true) in
  let wait () =
    Sched.op ~kind:Sched.Lock ~obj ~enabled:(fun () -> !flag) (fun () -> Sched.Ret ())
  in
  (set, wait)

(* {2 Eventcount} *)

(* Real eventcount, [producers] signalling / [consumers] waiting on one
   slot with no optimistic spin. The no-lost-wakeup property needs no
   explicit assertion: a lost wake leaves a consumer asleep forever, which
   the scheduler reports as a deadlock. *)
let ec_real ~producers ~consumers =
  {
    Explore.name = Printf.sprintf "ec-%dx%d" producers consumers;
    make =
      (fun () ->
        let ec = EC.create ~slots:1 ~spin:0 ~initial:0 () in
        let produced = P.Atomic.make 0 in
        let producer () =
          P.Atomic.incr produced;
          EC.signal_after_insert ec
        in
        let consumer () = EC.wait_before_extract ec in
        let bodies =
          List.init producers (fun _ -> producer) @ List.init consumers (fun _ -> consumer)
        in
        let final () =
          if P.Atomic.get produced <> producers then
            Sched.violation "produced %d, expected %d" (P.Atomic.get produced) producers
        in
        (bodies, final));
  }

(* Minimal eventcount model: one futex word (bit 0 = sleepers advertised,
   bits 1.. = sequence) plus a [ready] flag. The correct consumer re-checks
   [ready] *after* publishing the sleeper bit; the seeded bug skips that
   re-check, opening the classic lost-wakeup window: the producer's signal
   lands between the consumer's readiness check and its sleeper-bit CAS,
   after which nothing ever bumps the word again. *)
let ec_mini ~buggy =
  {
    Explore.name = (if buggy then "ec-mini-lost-wakeup" else "ec-mini");
    make =
      (fun () ->
        let word = P.Futex.create 0 in
        let ready = P.Atomic.make false in
        let producer () =
          P.Atomic.set ready true;
          let rec bump () =
            let w = P.Futex.get word in
            let next = (((w lsr 1) + 1) lsl 1) land max_int in
            if P.Futex.compare_and_set word w next then begin
              if w land 1 = 1 then P.Futex.wake word
            end
            else bump ()
          in
          bump ()
        in
        let consumer () =
          let rec wait_loop () =
            if not (P.Atomic.get ready) then begin
              let w = P.Futex.get word in
              if w land 1 = 1 then begin
                if buggy then P.Futex.wait word w
                else if not (P.Atomic.get ready) then P.Futex.wait word w;
                wait_loop ()
              end
              else if P.Futex.compare_and_set word w (w lor 1) then begin
                (* seeded bug: sleep without re-checking readiness *)
                if buggy then P.Futex.wait word (w lor 1)
                else if not (P.Atomic.get ready) then P.Futex.wait word (w lor 1);
                wait_loop ()
              end
              else wait_loop ()
            end
          in
          wait_loop ()
        in
        ([ producer; consumer ], fun () -> ()));
  }

(* {2 Hazard pointers} *)

type hnode = { mutable freed : bool; tag : int }

(* Writer swaps the shared pointer and retires the old node
   ([scan_threshold = 1] recycles at the first unprotected scan); reader
   acquires it through the hazard-pointer protocol and asserts it is not
   reading recycled memory. The buggy reader publishes without
   re-validating — the textbook use-after-retire race. *)
let hazard ~buggy =
  {
    Explore.name = (if buggy then "hazard-publish-race" else "hazard-protect");
    make =
      (fun () ->
        let dom =
          HP.create ~slots_per_thread:1 ~max_threads:2 ~scan_threshold:1
            ~recycle:(fun n -> n.freed <- true)
            ()
        in
        let th_w = HP.register dom in
        let th_r = HP.register dom in
        let n0 = { freed = false; tag = 0 } in
        let n1 = { freed = false; tag = 1 } in
        let src = P.Atomic.make n0 in
        let writer () =
          let old = P.Atomic.get src in
          P.Atomic.set src n1;
          HP.retire th_w old
        in
        let reader () =
          let n =
            if buggy then begin
              (* seeded bug: publish without the re-validation loop *)
              let n = P.Atomic.get src in
              HP.set th_r ~slot:0 n;
              n
            end
            else HP.protect th_r ~slot:0 src
          in
          if n.freed then Sched.violation "hazard: read of recycled node %d" n.tag;
          HP.clear th_r ~slot:0
        in
        ([ writer; reader ], fun () -> ()));
  }

(* {2 Locks} *)

(* Mutual exclusion of the real TATAS spin lock: the critical section
   contains a yield point (a shared atomic bump), so any mutual-exclusion
   violation is observable as two fibers inside it at once. *)
let lock_mutex (module L : Zmsq_sync.Lock.S) lname =
  {
    Explore.name = Printf.sprintf "lock-%s-mutual-exclusion" lname;
    make =
      (fun () ->
        let lock = L.create () in
        let scratch = P.Atomic.make 0 in
        let in_crit = ref false in
        let body () =
          L.acquire lock;
          if !in_crit then Sched.violation "lock %s: two fibers in critical section" lname;
          in_crit := true;
          P.Atomic.incr scratch;
          in_crit := false;
          L.release lock
        in
        let final () =
          if P.Atomic.get scratch <> 2 then
            Sched.violation "lock %s: %d critical sections, expected 2" lname
              (P.Atomic.get scratch)
        in
        ([ body; body ], final));
  }

let tatas_mutex = lock_mutex (module ML.Tatas) "tatas"

(* {2 ZMSQ} *)

(* Strict-mode parameters shrunk to the smallest interesting tree, with
   observability off and blocking (enabledness-modeled) per-node locks so
   the state space is spent on the algorithm rather than on spin loops. *)
let model_params =
  {
    Zmsq.Params.strict with
    target_len = 4;
    lock_policy = Zmsq.Params.Blocking;
    blocking = false;
    forced_insert = true;
    min_swap = false;
    split = false;
    initial_levels = 1;
    forced_min_level = 0;
    obs = Zmsq_obs.Level.Off;
  }

type qop = Ins of int | Ext

(* Run [per_thread] operation scripts against strict (batch = 0) ZMSQ and
   check the recorded history against the sequential max-queue spec.
   Timestamps are scheduler step counters, so real-time order pruning in
   [Linearize.check] is exact. The functor is re-applied per execution so
   functor-level state (the handle-seed counter) cannot drift between
   executions — a determinism requirement for replay. *)
let zmsq_lin ~name ~scripts =
  {
    Explore.name;
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:model_params () in
        let ops = ref [] in
        let record event start_ns =
          ops :=
            { Zmsq_harness.Linearize.event; start_ns; finish_ns = Sched.now_step () } :: !ops
        in
        let body script =
          let h = Q.register q in
          fun () ->
            List.iter
              (fun op ->
                let t0 = Sched.now_step () in
                match op with
                | Ins v ->
                    Q.insert h v;
                    record (Zmsq_harness.Linearize.Insert v) t0
                | Ext ->
                    let v = Q.extract h in
                    record
                      (Zmsq_harness.Linearize.Extract
                         (if Elt.is_none v then None else Some v))
                      t0)
              script
        in
        let bodies = List.map body scripts in
        let final () =
          if not (Zmsq_harness.Linearize.check !ops) then
            Sched.violation "non-linearizable history (%d ops)" (List.length !ops)
        in
        (bodies, final));
  }

let zmsq_strict_lin =
  zmsq_lin ~name:"zmsq-strict-lin"
    ~scripts:[ [ Ins 5; Ins 3; Ext ]; [ Ins 7; Ext; Ext ] ]

(* Structural check under concurrent insert/extract: after the fibers
   quiesce, the mound invariant (parent.max >= child.max), the cache
   coherence of every node and element conservation must all hold. *)
let zmsq_mound =
  {
    Explore.name = "zmsq-mound-invariant";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:model_params () in
        let extracted = ref [] in
        let inserted = [ [ 9; 4; 6 ]; [ 8; 2 ] ] in
        let body vals =
          let h = Q.register q in
          fun () ->
            List.iter (fun v -> Q.insert h v) vals;
            let v = Q.extract h in
            if not (Elt.is_none v) then extracted := v :: !extracted
        in
        let bodies = List.map body inserted in
        let final () =
          if not (Q.Debug.check_invariant q) then Sched.violation "mound invariant broken";
          let remaining = Q.Debug.elements q in
          let all = List.sort compare (List.concat inserted) in
          let seen = List.sort compare (!extracted @ remaining) in
          if all <> seen then
            Sched.violation "element conservation broken: %d in, %d accounted"
              (List.length all) (List.length seen)
        in
        (bodies, final));
  }

(* {2 ZMSQ per-domain insert buffering}

   [buffer_len = target_len = 8] gives a starting flush threshold of 2
   (buffer_len / 4), so the first insert of a handle genuinely stages and
   the second publishes — the interleavings the buffering layer adds
   (stage vs extract, demand vs flush, flush vs flush) all appear within
   tiny scripts. *)

let buffer_params = { model_params with Zmsq.Params.target_len = 8; buffer_len = 8 }

(* Flush-vs-extract interleavings: both fibers stage, flush (by threshold
   or unregister) and extract concurrently; afterwards the mound invariant
   must hold, nothing may be lost or duplicated, and no element may remain
   staged ([unregister] always publishes the backlog). *)
let zmsq_buffer_conserve =
  {
    Explore.name = "zmsq-buffer-conserve";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:buffer_params () in
        let extracted = ref [] in
        let inserted = [ [ 9; 4; 6 ]; [ 8; 2 ] ] in
        let body vals =
          let h = Q.register q in
          fun () ->
            List.iter (fun v -> Q.insert h v) vals;
            let v = Q.extract h in
            if not (Elt.is_none v) then extracted := v :: !extracted;
            Q.unregister h
        in
        let bodies = List.map body inserted in
        let final () =
          if not (Q.Debug.check_invariant q) then Sched.violation "mound invariant broken";
          if Q.Debug.buffered q <> 0 then
            Sched.violation "%d elements still staged after unregister" (Q.Debug.buffered q);
          let remaining = Q.Debug.elements q in
          let all = List.sort compare (List.concat inserted) in
          let seen = List.sort compare (!extracted @ remaining) in
          if all <> seen then
            Sched.violation "element conservation broken: %d in, %d accounted"
              (List.length all) (List.length seen)
        in
        (bodies, final));
  }

(* The no-stranded-element property: the producer fiber ends with an
   element still staged in its buffer (no unregister); a concurrent
   consumer may observe a momentarily empty published queue (and raises
   the flush demand), but once the producer's handle is released every
   element must be reachable again. *)
let zmsq_buffer_no_strand =
  {
    Explore.name = "zmsq-buffer-no-strand";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:buffer_params () in
        let ha = Q.register q in
        let hb = Q.register q in
        let extracted = ref [] in
        let producer () =
          (* One insert stays below the flush threshold: deliberately
             leaves the element staged when the fiber ends. *)
          Q.insert ha 5
        in
        let consumer () =
          for _ = 1 to 2 do
            let v = Q.extract hb in
            if not (Elt.is_none v) then extracted := v :: !extracted
          done
        in
        let final () =
          (* Releasing the producer's handle publishes its backlog... *)
          Q.unregister ha;
          Q.unregister hb;
          if Q.Debug.buffered q <> 0 then
            Sched.violation "%d elements still staged after unregister" (Q.Debug.buffered q);
          (* ...after which every element is extractable again. *)
          let hc = Q.register q in
          let rec drain acc =
            let v = Q.extract hc in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hc;
          let seen = List.sort compare (!extracted @ rest) in
          if seen <> [ 5 ] then
            Sched.violation "element lost or duplicated: %d accounted" (List.length seen)
        in
        ([ producer; consumer ], final));
  }

(* Eventcount wakeup through the buffering layer: the consumer may go to
   sleep while the producer's elements are still staged (extract sets the
   flush demand before reporting empty), so the producer's later flush
   must both publish and signal — a missing signal is a lost wakeup, which
   the scheduler reports as a deadlock. *)
let zmsq_buffer_wakeup =
  {
    Explore.name = "zmsq-buffer-wakeup";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ buffer_params with Zmsq.Params.blocking = true } () in
        let ha = Q.register q in
        let hb = Q.register q in
        let got = ref Elt.none in
        let producer () =
          Q.insert ha 5;
          (* The second insert crosses the flush threshold (or honors a
             pending demand) and must wake the sleeping consumer. *)
          Q.insert ha 9;
          Q.unregister ha
        in
        let consumer () =
          got := Q.extract_blocking hb;
          Q.unregister hb
        in
        let final () =
          if Elt.is_none !got then Sched.violation "blocking extract returned none";
          let hc = Q.register q in
          let rec drain acc =
            let v = Q.extract hc in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hc;
          let seen = List.sort compare (!got :: rest) in
          if seen <> [ 5; 9 ] then
            Sched.violation "element lost or duplicated: %d accounted" (List.length seen)
        in
        ([ producer; consumer ], final));
  }

(* {2 PR 4 liveness regressions: seeded-bug / fixed-code pairs}

   Each of the three fixed liveness bugs gets (a) a miniature protocol
   twin — like [ec_mini] — whose [~buggy] variant reproduces the pre-fix
   ordering and must be *detected* (deadlock or violation), keeping the
   checker honest about its coverage; and (b) a real-queue scenario that
   must pass on the fixed code and fails deterministically when the fix is
   reverted. *)

(* Shared eventcount-style helpers for the miniature twins: one futex word
   with bit 0 = sleepers advertised, bits 1.. = sequence. *)
let mini_signal word =
  let rec bump () =
    let w = P.Futex.get word in
    let next = (((w lsr 1) + 1) lsl 1) land max_int in
    if P.Futex.compare_and_set word w next then begin
      if w land 1 = 1 then P.Futex.wake word
    end
    else bump ()
  in
  bump ()

(* Correct sleeper: publish the sleeper bit, re-check [ready], sleep. *)
let mini_sleep_until word ready =
  let rec sleep () =
    if not (ready ()) then begin
      let w = P.Futex.get word in
      if w land 1 = 1 then begin
        if not (ready ()) then P.Futex.wait word w;
        sleep ()
      end
      else if P.Futex.compare_and_set word w (w lor 1) then begin
        if not (ready ()) then P.Futex.wait word (w lor 1);
        sleep ()
      end
      else sleep ()
    end
  in
  sleep ()

(* Twin of the [extract_timeout] deadline bug: the consumer's time budget
   is exhausted while the element is provably present (the gate stands in
   for "the matching insert landed during the last wait window, and the
   timed-out ticket was re-credited by the compensating signal"). Giving up
   without one final non-blocking poll — the pre-fix behaviour — misses an
   element the deadline semantics allow claiming. *)
let timeout_mini ~buggy =
  {
    Explore.name =
      (if buggy then "timeout-mini-skip-final-poll" else "timeout-mini-final-poll");
    make =
      (fun () ->
        let item = P.Atomic.make 0 in
        let claimed = ref false in
        let arrived, await_arrival = gate () in
        let producer () =
          P.Atomic.set item 1;
          arrived ()
        in
        let consumer () =
          await_arrival ();
          (* Deadline already passed: no waiting allowed from here on. *)
          if not buggy then
            (* fixed: one final non-blocking attempt *)
            if P.Atomic.get item = 1 then begin
              P.Atomic.set item 0;
              claimed := true
            end
        in
        let final () =
          if not !claimed then
            Sched.violation "timed extract gave up on a provably nonempty queue"
        in
        ([ producer; consumer ], final));
  }

(* Twin of the [buf_insert] demand-ordering bug: the producer honors the
   consumer's flush demand *before* staging its element (pre-fix order).
   A one-shot producer whose only insert arrives after the demand then
   stages invisibly and never publishes or signals; the consumer, asleep
   on the futex, is never woken — reported as a deadlock. The fixed order
   (stage, then honor demand) publishes and wakes. *)
let buf_mini ~buggy =
  {
    Explore.name = (if buggy then "buf-mini-demand-prestage" else "buf-mini-demand");
    make =
      (fun () ->
        let staged = P.Atomic.make 0 in
        let published = P.Atomic.make 0 in
        let word = P.Futex.create 0 in
        let demanded, await_demand = gate () in
        let publish () =
          P.Atomic.set published (P.Atomic.get published + P.Atomic.get staged);
          P.Atomic.set staged 0;
          mini_signal word
        in
        let producer () =
          await_demand ();
          if buggy then begin
            (* pre-fix: demand checked against the *old* backlog — empty *)
            if P.Atomic.get staged > 0 then publish ();
            P.Atomic.set staged 1
          end
          else begin
            (* fixed: stage first, then honor the (known-raised) demand *)
            P.Atomic.set staged 1;
            publish ()
          end
        in
        let consumer () =
          if P.Atomic.get published = 0 then begin
            demanded ();
            mini_sleep_until word (fun () -> P.Atomic.get published > 0)
          end
        in
        let final () =
          if P.Atomic.get staged > 0 && P.Atomic.get published = 0 then
            Sched.violation "element stranded in the producer's buffer"
        in
        ([ producer; consumer ], final));
  }

(* Twin of the bulk-flush signalling contract behind [Eventcount.signal_n]:
   a bulk publication of n elements must bump *every* slot covered by the
   credited ticket range. The buggy variant wakes only the first covered
   slot, so the sleeper parked on the second ticket's slot stays asleep
   forever — the lost-wakeup shape [signal_n] has to avoid while replacing
   n individual signals with min(n, slots) bumps. *)
let bulk_mini ~buggy =
  {
    Explore.name = (if buggy then "bulk-mini-single-wake" else "bulk-mini-wake-all");
    make =
      (fun () ->
        let count = P.Atomic.make 0 in
        let slot0 = P.Futex.create 0 in
        let slot1 = P.Futex.create 0 in
        let producer () =
          (* Bulk credit: both tickets become ready at once... *)
          P.Atomic.set count 2;
          (* ...then the covered slots are signalled — or, seeded bug,
             only the first one. *)
          mini_signal slot0;
          if not buggy then mini_signal slot1
        in
        let consumer need slot () =
          mini_sleep_until slot (fun () -> P.Atomic.get count >= need)
        in
        ([ producer; consumer 1 slot0; consumer 2 slot1 ], fun () -> ()));
  }

(* Real-queue regression for the [extract_timeout] fix: a zero-budget timed
   extract is exactly the deadline path (no wait ever happens), so on the
   pre-fix code it unconditionally returns [none] — including against the
   quiesced, provably nonempty queue in the final check. On the fixed code
   it degrades to a plain try-pop and must claim. *)
let zmsq_timeout_poll =
  {
    Explore.name = "zmsq-timeout-poll";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ model_params with Zmsq.Params.blocking = true } () in
        let hp = Q.register q in
        let hc = Q.register q in
        let got = ref Elt.none in
        let producer () = Q.insert hp 7 in
        let consumer () =
          (* Racing the insert: a miss here is legal (queue may still be
             empty)... *)
          let v = Q.extract_timeout hc ~timeout_ns:0 in
          if not (Elt.is_none v) then got := v
        in
        let final () =
          if Elt.is_none !got then begin
            (* ...but after quiescence the element is definitely published:
               a zero-budget poll must claim it. *)
            let v = Q.extract_timeout hc ~timeout_ns:0 in
            if Elt.is_none v then
              Sched.violation "zero-budget timed extract missed a present element"
          end
        in
        ([ producer; consumer ], final));
  }

(* Real-queue regression for the [buf_insert] fix — the one-shot-producer
   case of [zmsq_buffer_wakeup]: an idle producer leaves an element staged
   (making [buffered] nonzero), the consumer's failed extract raises the
   flush demand and sleeps, and then a *different* producer performs
   exactly one insert and goes silent. The fix publishes that insert (and
   signals) because demand is honored after staging; pre-fix code checks
   demand against its empty backlog first, stages invisibly, and the
   consumer deadlocks. *)
let zmsq_buffer_wakeup_oneshot =
  {
    Explore.name = "zmsq-buffer-wakeup-oneshot";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ buffer_params with Zmsq.Params.blocking = true } () in
        let h1 = Q.register q in
        let h2 = Q.register q in
        let hc = Q.register q in
        let got = ref Elt.none in
        let staged, await_staged = gate () in
        let demanded, await_demand = gate () in
        let idle_producer () =
          (* One insert stays below the flush threshold; the handle is not
             unregistered while fibers run, so the element legally remains
             staged — but it makes the consumer's empty extract raise the
             flush demand. *)
          Q.insert h1 5;
          staged ()
        in
        let oneshot_producer () =
          await_demand ();
          Q.insert h2 9
        in
        let consumer () =
          await_staged ();
          let v = Q.extract hc in
          if not (Elt.is_none v) then got := v
          else begin
            demanded ();
            got := Q.extract_blocking hc
          end
        in
        let final () =
          if Elt.is_none !got then Sched.violation "consumer extracted nothing";
          Q.unregister h1;
          Q.unregister h2;
          Q.unregister hc;
          let hd = Q.register q in
          let rec drain acc =
            let v = Q.extract hd in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hd;
          let seen = List.sort compare (!got :: rest) in
          if seen <> [ 5; 9 ] then
            Sched.violation "element lost or duplicated: %d accounted" (List.length seen)
        in
        ([ idle_producer; oneshot_producer; consumer ], final));
  }

(* Real-queue regression for [signal_n]: one bulk flush publishes two
   elements while two consumers are *provably asleep* on distinct ticket
   slots — the producer is enabledness-gated on the eventcount's sleep
   counter, so every execution reaches the interesting state instead of
   relying on the random scheduler to outlast the 512-iteration optimistic
   spin. The flush's single [signal_n] call must wake both sleepers; a
   signalling scheme that under-wakes (e.g. bumping only the first covered
   slot) leaves one consumer asleep forever — a deadlock. *)
let zmsq_flush_wakes_all =
  {
    Explore.name = "zmsq-flush-wakes-all";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ buffer_params with Zmsq.Params.blocking = true } () in
        let hp = Q.register q in
        let h1 = Q.register q in
        let h2 = Q.register q in
        let got1 = ref Elt.none in
        let got2 = ref Elt.none in
        (* Blocks (via enabledness, not spinning) until [n] eventcount
           sleeps have been recorded. The callback runs outside any fiber,
           so the model-atomic reads inside [eventcount_stats] execute
           directly and invisibly. *)
        let await_sleepers n =
          let obj = Sched.fresh_obj () in
          Sched.op ~kind:Sched.Lock ~obj
            ~enabled:(fun () ->
              match Q.Debug.eventcount_stats q with Some (s, _) -> s >= n | None -> false)
            (fun () -> Sched.Ret ())
        in
        let producer () =
          await_sleepers 2;
          Q.insert hp 5;
          (* The second insert reaches the flush threshold (or honors a
             pending demand): one bulk publication covering both
             elements, one [signal_n] call. *)
          Q.insert hp 9
        in
        let c1 () = got1 := Q.extract_blocking h1 in
        let c2 () = got2 := Q.extract_blocking h2 in
        let final () =
          if Elt.is_none !got1 || Elt.is_none !got2 then
            Sched.violation "a blocking consumer returned none";
          let seen = List.sort compare [ !got1; !got2 ] in
          if seen <> [ 5; 9 ] then
            Sched.violation "element lost or duplicated across the bulk wake"
        in
        ([ producer; c1; c2 ], final));
  }

(* {2 PR 5 lifecycle: close / drain / orphan-reclaim seeded-bug pairs}

   The shutdown and reclamation protocols get the same treatment as the
   PR 4 liveness fixes: a miniature twin per protocol decision whose
   [~buggy] variant reverts the decision and must be detected, plus
   real-queue scenarios that pass on the fixed code and fail
   deterministically when the corresponding fix is reverted. *)

(* Twin of the [close] publication order: the closed flag must be
   published *before* the eventcount slots are bumped. The buggy variant
   wakes first and flips the flag after — the wake can land before the
   consumer ever advertises the sleeper bit, after which it re-checks the
   (still unset) flag, goes to sleep, and nothing ever bumps the word
   again: the poisoned wakeup is lost and shutdown hangs. *)
let close_mini ~buggy =
  {
    Explore.name = (if buggy then "close-mini-flag-after-wake" else "close-mini");
    make =
      (fun () ->
        let word = P.Futex.create 0 in
        let closed = P.Atomic.make false in
        let closer () =
          if buggy then begin
            (* seeded bug: broadcast, then publish the flag *)
            mini_signal word;
            P.Atomic.set closed true
          end
          else begin
            P.Atomic.set closed true;
            mini_signal word
          end
        in
        let consumer () = mini_sleep_until word (fun () -> P.Atomic.get closed) in
        ([ closer; consumer ], fun () -> ()));
  }

(* Twin of the [insert]-vs-[close] atomicity decision: the lifecycle gate
   runs *before* staging, so a [Queue_closed] raise admits nothing. The
   buggy variant stages first and gates after — the caller is told
   "rejected" while the element sits in the buffer, so a rejected element
   later surfaces from a flush: shutdown half-admitted it. *)
let insert_close_mini ~buggy =
  {
    Explore.name =
      (if buggy then "insert-close-mini-stage-first" else "insert-close-mini");
    make =
      (fun () ->
        let state = P.Atomic.make 0 (* 0 = open, 2 = closed *) in
        let staged = P.Atomic.make 0 in
        let accepted = ref 0 in
        let producer () =
          if buggy then begin
            (* seeded bug: stage, then check — the "raise" leaves the
               element behind *)
            P.Atomic.incr staged;
            if P.Atomic.get state = 0 then incr accepted
          end
          else if P.Atomic.get state = 0 then begin
            (* accepted: the insert linearized before the close *)
            P.Atomic.incr staged;
            incr accepted
          end
        in
        let closer () = P.Atomic.set state 2 in
        let final () =
          (* the owner's eventual flush publishes exactly the accepted
             backlog; anything else was half-admitted *)
          if P.Atomic.get staged <> !accepted then
            Sched.violation "insert-vs-close: %d staged but %d accepted"
              (P.Atomic.get staged) !accepted
        in
        ([ producer; closer ], final));
  }

(* Twin of the orphan-reclaim vs owner-resurrection race: both sides must
   settle ownership through a CAS on the owner word, so exactly one wins.
   The buggy owner re-checks and then blind-stores Live — the scavenger's
   claim can land in between, leaving a handle that is simultaneously
   resurrected (owner writing its buffer) and reclaimed (buffer flushed,
   hazard record released): a use-after-reclaim. *)
let orphan_race_mini ~buggy =
  {
    Explore.name =
      (if buggy then "orphan-race-mini-blind-store" else "orphan-race-mini");
    make =
      (fun () ->
        (* 0 = live, 1 = orphaned, 2 = reclaimed; starts orphaned *)
        let owner = P.Atomic.make 1 in
        let reclaimed = ref false in
        let scavenger () =
          if P.Atomic.compare_and_set owner 1 2 then reclaimed := true
        in
        let resurrect () =
          if buggy then begin
            (* seeded bug: check-then-store instead of CAS *)
            if P.Atomic.get owner = 1 then P.Atomic.set owner 0
          end
          else ignore (P.Atomic.compare_and_set owner 1 0)
        in
        let final () =
          if !reclaimed && P.Atomic.get owner = 0 then
            Sched.violation "owner resurrected a reclaimed handle"
        in
        ([ scavenger; resurrect ], final));
  }

(* Twin of the drain-completion check: [try_finish_drain] must observe
   *both* the published size and the staged count before closing. The
   buggy variant checks only the published size, so a drain completes
   while an element is still staged in a producer's buffer — the queue
   reports closed-and-empty with an element stranded inside. *)
let drain_mini ~buggy =
  {
    Explore.name = (if buggy then "drain-mini-ignore-staged" else "drain-mini");
    make =
      (fun () ->
        let size = P.Atomic.make 0 in
        let staged = P.Atomic.make 1 in
        let state = P.Atomic.make 1 (* draining *) in
        let finisher () =
          (* staged first, then size: during a drain nothing new stages,
             so staged = 0 is stable and the later size read cannot be
             stale w.r.t. an in-flight flush. The buggy variant ignores
             staged; reading size first reopens the same window. *)
          let empty =
            (buggy || P.Atomic.get staged = 0) && P.Atomic.get size = 0
          in
          if empty then ignore (P.Atomic.compare_and_set state 1 2)
        in
        let flusher () =
          (* publish before clearing the staged count, as [bulk_flush]
             does, so there is never a false-empty window *)
          P.Atomic.incr size;
          P.Atomic.set staged 0
        in
        let final () =
          if P.Atomic.get state = 2 && P.Atomic.get size + P.Atomic.get staged > 0
          then
            Sched.violation "drain closed a nonempty queue (%d published, %d staged)"
              (P.Atomic.get size) (P.Atomic.get staged)
        in
        ([ finisher; flusher ], final));
  }

(* Real-queue regression: [close] on a queue with consumers *provably
   asleep* on distinct eventcount slots must wake every one of them with
   the closed-and-empty outcome. A reverted broadcast (waking one slot, or
   poisoning without bumping) leaves a consumer asleep forever — a
   deadlock. *)
let zmsq_close_wakes_all =
  {
    Explore.name = "zmsq-close-wakes-all";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ model_params with Zmsq.Params.blocking = true } () in
        let h1 = Q.register q in
        let h2 = Q.register q in
        let got1 = ref (Elt.of_priority 0) in
        let got2 = ref (Elt.of_priority 0) in
        let await_sleepers n =
          let obj = Sched.fresh_obj () in
          Sched.op ~kind:Sched.Lock ~obj
            ~enabled:(fun () ->
              match Q.Debug.eventcount_stats q with Some (s, _) -> s >= n | None -> false)
            (fun () -> Sched.Ret ())
        in
        let closer () =
          await_sleepers 2;
          Q.close q
        in
        let c1 () = got1 := Q.extract_blocking h1 in
        let c2 () = got2 := Q.extract_blocking h2 in
        let final () =
          if not (Elt.is_none !got1 && Elt.is_none !got2) then
            Sched.violation "a woken consumer saw a phantom element";
          if Q.lifecycle q <> Zmsq.Closed then Sched.violation "close did not close"
        in
        ([ closer; c1; c2 ], final));
  }

(* Real-queue regression for insert-vs-close atomicity: inserts race a
   concurrent [close]; every insert either raises [Queue_closed] (and its
   element is unreachable forever) or succeeds (and its element must
   surface exactly once, staged backlogs included). *)
let zmsq_insert_close_conserve =
  {
    Explore.name = "zmsq-insert-close-conserve";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:buffer_params () in
        let hp = Q.register q in
        let accepted = ref [] in
        let producer () =
          List.iter
            (fun v ->
              try
                Q.insert hp v;
                accepted := v :: !accepted
              with Zmsq.Queue_closed -> ())
            [ 9; 4 ]
        in
        let closer () = Q.close q in
        let final () =
          (* the owner's unregister publishes any accepted-but-staged
             elements — legal in every lifecycle state *)
          Q.unregister hp;
          let hd = Q.register q in
          let rec drain acc =
            let v = Q.extract hd in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hd;
          let seen = List.sort compare rest in
          let want = List.sort compare !accepted in
          if seen <> want then
            Sched.violation "insert-vs-close: %d accepted but %d reachable"
              (List.length want) (List.length seen)
        in
        ([ producer; closer ], final));
  }

(* Real-queue regression for the orphan-reclaim CAS protocol: a scavenger
   reclaims a handle whose owner was presumed dead, while the owner comes
   back and operates again. Exactly one side must win: every path ends
   with the first element reachable exactly once and the second element
   either admitted (owner resurrected) or cleanly refused
   ([Invalid_argument] after the scavenger won). *)
let zmsq_orphan_reclaim_race =
  {
    Explore.name = "zmsq-orphan-reclaim-race";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:buffer_params () in
        let h = Q.register q in
        let second_admitted = ref false in
        let staged, await_staged = gate () in
        let orphaned, await_orphaned = gate () in
        let owner () =
          (* one insert stays below the flush threshold: staged only *)
          Q.insert h 5;
          staged ();
          (* [orphan] is only legal between owner operations, so the
             declaration itself is gated; the *reclaim* races freely
             against the owner's resurrection CAS below. *)
          await_orphaned ();
          try
            Q.insert h 7;
            second_admitted := true
          with Invalid_argument _ -> ()
        in
        let scavenger () =
          await_staged ();
          Q.orphan h;
          orphaned ();
          ignore (Q.reclaim_orphans q)
        in
        let final () =
          (try Q.unregister h with Invalid_argument _ -> ());
          let hd = Q.register q in
          let rec drain acc =
            let v = Q.extract hd in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hd;
          let seen = List.sort compare rest in
          let want = if !second_admitted then [ 5; 7 ] else [ 5 ] in
          if seen <> want then
            Sched.violation "orphan race lost or duplicated: %d reachable, %d expected"
              (List.length seen) (List.length want)
        in
        ([ owner; scavenger ], final));
  }

(* Real-queue regression for drain exactness: [close ~drain:true] races
   the producer, and a blocking consumer drains to the closed-and-empty
   outcome. Every accepted element — published or staged at the moment of
   close — must be extracted before the consumer sees [none], and the
   drain completion must actually close the queue. A premature completion
   (ignoring [buffered]) strands elements; a lost completion broadcast
   leaves the consumer asleep — a deadlock. *)
let zmsq_drain_exact =
  {
    Explore.name = "zmsq-drain-exact";
    make =
      (fun () ->
        let module Q = Zmsq.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q = Q.create ~params:{ buffer_params with Zmsq.Params.blocking = true } () in
        let hp = Q.register q in
        let hc = Q.register q in
        let accepted = ref [] in
        let got = ref [] in
        let producer () =
          List.iter
            (fun v ->
              try
                Q.insert hp v;
                accepted := v :: !accepted
              with Zmsq.Queue_closed -> ())
            [ 9; 4; 6 ];
          (* publishes any staged backlog, letting the drain complete *)
          Q.unregister hp
        in
        let closer () = Q.close ~drain:true q in
        let consumer () =
          let rec go () =
            let v = Q.extract_blocking hc in
            if not (Elt.is_none v) then begin
              got := v :: !got;
              go ()
            end
          in
          go ()
        in
        let final () =
          if Q.lifecycle q <> Zmsq.Closed then
            Sched.violation "drain completed without closing the queue";
          let seen = List.sort compare !got in
          let want = List.sort compare !accepted in
          if seen <> want then
            Sched.violation "drain-exactness: %d accepted but %d drained"
              (List.length want) (List.length seen)
        in
        ([ producer; closer; consumer ], final));
  }

(* {2 PR 8 sharding: sticky-routing / two-choice seeded-bug pairs}

   The [Zmsq_shard] routing decisions get miniature twins like the PR 4/5
   protocol pairs: shards are modeled as (trylock word, published count)
   cells plus a cached-maximum array, so the two decisions under test —
   re-roll away from a stuck sticky shard, and sweep past stale cached
   maxima — are isolated from the mound machinery. *)

(* Twin of the sticky re-roll vs [Drain] decision: a peer holds the sticky
   shard's node trylock for the whole scenario (a preempted flush), so the
   handle's staged element can never publish there. The fixed path treats
   the lost trylock as a contention hint and re-rolls to another shard;
   the buggy path stays sticky, retrying the stuck shard, and the element
   is still staged when the drain accounts for it — stranded. *)
let shard_reroll_mini ~buggy =
  {
    Explore.name =
      (if buggy then "shard-reroll-mini-sticky-stuck" else "shard-reroll-mini");
    make =
      (fun () ->
        let lock0 = P.Atomic.make false in
        let lock1 = P.Atomic.make false in
        let pub0 = P.Atomic.make 0 in
        let pub1 = P.Atomic.make 0 in
        let staged = P.Atomic.make 1 in
        let held, await_held = gate () in
        let holder () =
          (* shard 0's node lock, taken and never released while the
             fibers run — the drain cannot wait it out *)
          if P.Atomic.compare_and_set lock0 false true then held ()
          else held ()
        in
        let try_publish lock pub =
          if P.Atomic.compare_and_set lock false true then begin
            P.Atomic.set pub (P.Atomic.get pub + P.Atomic.get staged);
            P.Atomic.set staged 0;
            P.Atomic.set lock false;
            true
          end
          else false
        in
        let flusher () =
          await_held ();
          (* the drain demands a flush; the sticky shard is shard 0 *)
          if not (try_publish lock0 pub0) then begin
            if buggy then
              (* seeded bug: stay sticky — one more try at the same
                 shard, then give up with the element still staged *)
              ignore (try_publish lock0 pub0)
            else
              (* fixed: the lost trylock re-rolls the handle *)
              ignore (try_publish lock1 pub1)
          end
        in
        let final () =
          if P.Atomic.get staged > 0 then
            Sched.violation
              "drain: element stranded on a stuck sticky shard (%d published)"
              (P.Atomic.get pub0 + P.Atomic.get pub1)
        in
        ([ holder; flusher ], final));
  }

(* Twin of the two-choice extraction vs stale cached maxima: the element
   lives in shard 2, but its owner was preempted before the cached-max
   bump, so shard 2's cache reads empty while shard 0's still carries a
   leftover claim from an element long extracted. The two-choice pick
   (winner shard 0, loser shard 1) misses twice; the fixed path then
   sweeps every shard before concluding empty, the buggy path trusts the
   caches and returns none while shard 2 is provably nonempty. *)
let shard_stale_max_mini ~buggy =
  {
    Explore.name =
      (if buggy then "shard-stale-max-mini-no-sweep" else "shard-stale-max-mini");
    make =
      (fun () ->
        let sizes = Array.init 3 (fun _ -> P.Atomic.make 0) in
        let cmax = Array.init 3 (fun _ -> P.Atomic.make 0) in
        let got = ref false in
        let landed, await_landed = gate () in
        let producer () =
          P.Atomic.set cmax.(0) 1 (* stale: claims an extracted element *);
          P.Atomic.incr sizes.(2) (* the real element; no cache bump *);
          landed ()
        in
        let try_shard i =
          let n = P.Atomic.get sizes.(i) in
          n > 0 && P.Atomic.compare_and_set sizes.(i) n (n - 1)
        in
        let extractor () =
          await_landed ();
          (* two-choice over the cached maxima: 0 beats 1 *)
          let winner = if P.Atomic.get cmax.(0) >= P.Atomic.get cmax.(1) then 0 else 1 in
          let loser = 1 - winner in
          if try_shard winner then got := true
          else if try_shard loser then got := true
          else if not buggy then
            (* fixed: a full sweep before reporting empty *)
            Array.iteri (fun i _ -> if (not !got) && try_shard i then got := true) sizes
        in
        let final () =
          let live = Array.fold_left (fun a s -> a + P.Atomic.get s) 0 sizes in
          if (not !got) && live > 0 then
            Sched.violation
              "two-choice returned none while a shard held %d element(s)" live
        in
        ([ producer; extractor ], final));
  }

(* And a real sharded queue under the random scheduler: two shards, sticky
   routing, two-choice extraction — concurrent inserts and extracts must
   conserve elements, leave every shard's mound intact, and a post-run
   drain through the outer queue must reach exact emptiness (no element
   hidden behind a stale cached maximum). *)
let zmsq_shard_conserve =
  {
    Explore.name = "zmsq-shard-conserve";
    make =
      (fun () ->
        let module Q = Zmsq.Shard.Make_prim (Shim.Prim) (Shim.Lock) (Zmsq.Array_set) in
        let q =
          Q.create
            ~params:
              { model_params with Zmsq.Params.shards = 2; stickiness = 2; seed = Some 11 }
            ()
        in
        let extracted = ref [] in
        let inserted = [ [ 9; 4; 6 ]; [ 8; 2 ] ] in
        let body vals =
          let h = Q.register q in
          fun () ->
            List.iter (fun v -> Q.insert h v) vals;
            let v = Q.extract h in
            if not (Elt.is_none v) then extracted := v :: !extracted;
            Q.unregister h
        in
        let bodies = List.map body inserted in
        let final () =
          if not (Q.Debug.check_invariant q) then
            Sched.violation "sharded mound invariant broken";
          let h = Q.register q in
          let rec drain acc =
            let v = Q.extract h in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister h;
          if not (Q.is_empty q) then
            Sched.violation "drain left %d element(s) behind a stale shard max" (Q.length q);
          let all = List.sort compare (List.concat inserted) in
          let seen = List.sort compare (!extracted @ rest) in
          if all <> seen then
            Sched.violation "sharded element conservation broken: %d in, %d accounted"
              (List.length all) (List.length seen)
        in
        (bodies, final));
  }

(* Twin of the sharded blocking wait (PR 8's rotating 200µs park slices
   vs the combined family eventcount): every shard's publication signals
   the family-shared word. The fixed waiter parks on that combined word,
   so an insert into any shard wakes it; the buggy waiter parks on its
   current rotation target's per-shard word while the element lands on
   the other shard — nothing ever bumps the parked word (the model futex,
   like the shimmed native one, never times out) and the waiter sleeps
   forever. The deadlock detector is the assertion. *)
let shard_wait_mini ~buggy =
  {
    Explore.name = (if buggy then "shard-wait-mini-rotating-park" else "shard-wait-mini");
    make =
      (fun () ->
        let combined = P.Futex.create 0 in
        let word0 = P.Futex.create 0 (* shard 0's private word *) in
        let sizes = Array.init 2 (fun _ -> P.Atomic.make 0) in
        let inserter () =
          P.Atomic.incr sizes.(1);
          mini_signal combined
        in
        let ready () = P.Atomic.get sizes.(0) > 0 || P.Atomic.get sizes.(1) > 0 in
        let waiter () =
          if buggy then
            (* pre-fix: park the slice on the rotation target, shard 0 *)
            mini_sleep_until word0 ready
          else mini_sleep_until combined ready
        in
        ([ inserter; waiter ], fun () -> ()));
  }

(* {2 Chaos mode: the Faulty adapter under the model scheduler}

   The Faulty functor is applied to the shim *inside make*, so each
   execution gets fresh policy state and per-domain RNG streams — fault
   decisions are deterministic per schedule and replays reproduce them.
   Shim-safe knobs only: forced trylock failures (at both the PRIM mutex
   and the spin-lock try path via [Lock.Faulty]); stalls, wake delays and
   freezes are native-only concerns exercised by the soak runner. *)

let chaos_seed = 0xFA117

let zmsq_chaos_trylock =
  {
    Explore.name = "zmsq-chaos-trylock";
    make =
      (fun () ->
        let module FP = Zmsq_prim.Faulty.Make (Shim.Prim) () in
        let module FL = Zmsq_sync.Lock.Make (FP) in
        let module L =
          Zmsq_sync.Lock.Faulty
            (FL.Tatas)
            (struct
              let fail_try_acquire = FP.Ctl.inject_try_acquire_failure
            end)
        in
        FP.Ctl.install
          { Zmsq_prim.Faulty.off with seed = chaos_seed; trylock_fail_1in = 3 };
        let module Q = Zmsq.Make_prim (FP) (L) (Zmsq.Array_set) in
        let q =
          Q.create ~params:{ model_params with Zmsq.Params.lock_policy = Zmsq.Params.Trylock } ()
        in
        let extracted = ref [] in
        let inserted = [ [ 9; 4 ]; [ 8; 2 ] ] in
        let body vals =
          let h = Q.register q in
          fun () ->
            List.iter (fun v -> Q.insert h v) vals;
            let v = Q.extract h in
            if not (Elt.is_none v) then extracted := v :: !extracted
        in
        let bodies = List.map body inserted in
        let final () =
          if not (Q.Debug.check_invariant q) then Sched.violation "mound invariant broken";
          let remaining = Q.Debug.elements q in
          let all = List.sort compare (List.concat inserted) in
          let seen = List.sort compare (!extracted @ remaining) in
          if all <> seen then
            Sched.violation "element conservation broken under trylock chaos: %d in, %d accounted"
              (List.length all) (List.length seen)
        in
        (bodies, final));
  }

(* Chaos with buffering *and* blocking on: forced trylock failures hit the
   bulk-flush publication loop while a consumer blocks on the eventcount.
   Producers unregister (publishing their backlog), so the consumer is
   guaranteed an element — any lost wake or stranded element under fault
   injection shows up as a deadlock or a conservation violation. *)
let zmsq_chaos_buffered =
  {
    Explore.name = "zmsq-chaos-buffered";
    make =
      (fun () ->
        let module FP = Zmsq_prim.Faulty.Make (Shim.Prim) () in
        let module FL = Zmsq_sync.Lock.Make (FP) in
        let module L =
          Zmsq_sync.Lock.Faulty
            (FL.Tatas)
            (struct
              let fail_try_acquire = FP.Ctl.inject_try_acquire_failure
            end)
        in
        FP.Ctl.install
          { Zmsq_prim.Faulty.off with seed = chaos_seed; trylock_fail_1in = 4 };
        let module Q = Zmsq.Make_prim (FP) (L) (Zmsq.Array_set) in
        let q =
          Q.create
            ~params:
              {
                buffer_params with
                Zmsq.Params.blocking = true;
                lock_policy = Zmsq.Params.Trylock;
              }
            ()
        in
        let got = ref Elt.none in
        let inserted = [ [ 9; 4 ]; [ 8; 2 ] ] in
        let producers =
          List.map
            (fun vals ->
              let h = Q.register q in
              fun () ->
                List.iter (fun v -> Q.insert h v) vals;
                Q.unregister h)
            inserted
        in
        let hc = Q.register q in
        let consumer () = got := Q.extract_blocking hc in
        let final () =
          if Elt.is_none !got then Sched.violation "blocking extract returned none";
          Q.unregister hc;
          if Q.Debug.buffered q <> 0 then
            Sched.violation "%d elements still staged after unregister" (Q.Debug.buffered q);
          let hd = Q.register q in
          let rec drain acc =
            let v = Q.extract hd in
            if Elt.is_none v then acc else drain (v :: acc)
          in
          let rest = drain [] in
          Q.unregister hd;
          let all = List.sort compare (List.concat inserted) in
          let seen = List.sort compare (!got :: rest) in
          if all <> seen then
            Sched.violation "element conservation broken under buffered chaos: %d in, %d accounted"
              (List.length all) (List.length seen)
        in
        (producers @ [ consumer ], final));
  }

(* {2 Race-detector scenarios (PR 7)}

   The first pair is the detector's own seeded-bug twin: two writers hit a
   shared [Plain] cell with no synchronization at all. Undeclared, the
   happens-before checker must flag the pair (with a replayable schedule);
   declared [~benign], the identical access pattern must pass — which is
   exactly the contract the benign vocabulary promises, and what keeps
   "remove an annotation" an observable CI failure. The private per-fiber
   atomics exist only to give the failing execution a non-empty schedule
   prefix, so the replay path is exercised too. *)
let race_plain ~benign =
  {
    Explore.name = (if benign then "race-benign-declared" else "race-unsync-counter");
    make =
      (fun () ->
        let cell =
          P.Plain.make
            ?benign:(if benign then Some "scenario: unsynchronized by design" else None)
            ~name:"race.counter" 0
        in
        let a1 = P.Atomic.make 0 in
        let a2 = P.Atomic.make 0 in
        let writer private_ops () =
          P.Atomic.incr private_ops;
          P.Plain.set cell (P.Plain.get cell + 1)
        in
        ([ writer a1; writer a2 ], fun () -> ()));
  }

(* True-negative fence: the same increment pattern, but under a mutex. The
   lock acquire joins the unlocking thread's clock through the mutex
   object, so the cross-thread write/write pairs are ordered and the
   detector must stay silent across the full DFS. *)
let race_lock_fence =
  {
    Explore.name = "race-lock-fence";
    make =
      (fun () ->
        let mu = P.Mutex.create () in
        let cell = P.Plain.make ~name:"race.locked" 0 in
        (* The shared gate forces a DPOR backtrack point before either lock:
           a blocked [lock] never seeds one itself (it is disabled while the
           mutex is held), and without the gate DFS would explore only one
           acquisition order. *)
        let gate = P.Atomic.make 0 in
        let writer () =
          P.Atomic.incr gate;
          P.Mutex.lock mu; (* lint: allow raise-under-lock — model scenario, nothing raises *)
          P.Plain.set cell (P.Plain.get cell + 1);
          P.Mutex.unlock mu
        in
        let final () =
          P.Mutex.lock mu; (* lint: allow raise-under-lock — model scenario, nothing raises *)
          let v = P.Plain.get cell in
          P.Mutex.unlock mu;
          if v <> 2 then Sched.violation "lock-fenced counter: %d, expected 2" v
        in
        ([ writer; writer ], final));
  }

(* True-negative fence through the real eventcount: producer writes the
   cell, then signals; consumer returns from [wait_before_extract] (either
   through the insert-counter fast path or a futex sleep/wake) and reads.
   Both release/acquire chains — the insert counter's FAA/get pair and the
   futex-slot CAS feeding the scheduler's wake-resume edge — must order
   the write before the read. *)
let race_ec_fence =
  {
    Explore.name = "race-ec-fence";
    make =
      (fun () ->
        let ec = EC.create ~slots:1 ~spin:0 ~initial:0 () in
        let cell = P.Plain.make ~name:"race.handoff" 0 in
        let producer () =
          P.Plain.set cell 41;
          EC.signal_after_insert ec
        in
        let consumer () =
          EC.wait_before_extract ec;
          let v = P.Plain.get cell in
          if v <> 41 then Sched.violation "eventcount handoff read %d, expected 41" v
        in
        ([ producer; consumer ], fun () -> ()));
  }

(* {2 Registry} *)

type mode = Dfs | Rand of { executions : int; seed : int }

type entry = {
  scenario : Explore.scenario;
  mode : mode;
  expect_fail : bool;
  max_steps : int;
  max_executions : int;  (** DFS budget; ignored in [Rand] mode *)
}

let all =
  [
    { scenario = ec_real ~producers:1 ~consumers:1; mode = Dfs; expect_fail = false;
      max_steps = 400; max_executions = 50_000 };
    { scenario = ec_real ~producers:2 ~consumers:2; mode = Dfs; expect_fail = false;
      max_steps = 600; max_executions = 30_000 };
    { scenario = ec_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 300; max_executions = 50_000 };
    { scenario = ec_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 300; max_executions = 50_000 };
    { scenario = hazard ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 400; max_executions = 50_000 };
    { scenario = hazard ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 400; max_executions = 50_000 };
    { scenario = tatas_mutex; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = zmsq_strict_lin; mode = Rand { executions = 300; seed = 0x51ED };
      expect_fail = false; max_steps = 4000; max_executions = 0 };
    { scenario = zmsq_mound; mode = Rand { executions = 300; seed = 0xA11CE };
      expect_fail = false; max_steps = 4000; max_executions = 0 };
    { scenario = zmsq_buffer_conserve; mode = Rand { executions = 300; seed = 0xB0F1 };
      expect_fail = false; max_steps = 6000; max_executions = 0 };
    { scenario = zmsq_buffer_no_strand; mode = Rand { executions = 300; seed = 0xB0F2 };
      expect_fail = false; max_steps = 6000; max_executions = 0 };
    (* The eventcount's optimistic spin (512 iterations) makes these
       executions long; the bound is generous so sleeps are actually
       reached rather than cut off. *)
    { scenario = zmsq_buffer_wakeup; mode = Rand { executions = 150; seed = 0xB0F3 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    (* PR 4 liveness pairs: miniature twins explored exhaustively... *)
    { scenario = timeout_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 300; max_executions = 20_000 };
    { scenario = timeout_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 300; max_executions = 20_000 };
    { scenario = buf_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 400; max_executions = 50_000 };
    { scenario = buf_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 400; max_executions = 50_000 };
    { scenario = bulk_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 500; max_executions = 50_000 };
    { scenario = bulk_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 500; max_executions = 50_000 };
    (* ...and real-queue regressions under the random scheduler (gates and
       eventcount spins preclude DFS here). *)
    { scenario = zmsq_timeout_poll; mode = Rand { executions = 200; seed = 0x7140 };
      expect_fail = false; max_steps = 4000; max_executions = 0 };
    { scenario = zmsq_buffer_wakeup_oneshot; mode = Rand { executions = 150; seed = 0xB0F4 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    { scenario = zmsq_flush_wakes_all; mode = Rand { executions = 150; seed = 0xB0F5 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    (* PR 5 lifecycle pairs: miniature twins explored exhaustively... *)
    { scenario = close_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 300; max_executions = 50_000 };
    { scenario = close_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 300; max_executions = 50_000 };
    { scenario = insert_close_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = insert_close_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 200; max_executions = 20_000 };
    { scenario = orphan_race_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = orphan_race_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 200; max_executions = 20_000 };
    { scenario = drain_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = drain_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 200; max_executions = 20_000 };
    (* ...and real-queue lifecycle regressions under the random scheduler. *)
    { scenario = zmsq_close_wakes_all; mode = Rand { executions = 150; seed = 0xC105 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    { scenario = zmsq_insert_close_conserve; mode = Rand { executions = 300; seed = 0xC106 };
      expect_fail = false; max_steps = 6000; max_executions = 0 };
    { scenario = zmsq_orphan_reclaim_race; mode = Rand { executions = 300; seed = 0x0A7A };
      expect_fail = false; max_steps = 6000; max_executions = 0 };
    { scenario = zmsq_drain_exact; mode = Rand { executions = 150; seed = 0xD7A1 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    (* Chaos mode: seeded fault injection (forced trylock failures) at both
       the PRIM seam and the spin-lock try path. *)
    { scenario = zmsq_chaos_trylock; mode = Rand { executions = 200; seed = 0xC4A5 };
      expect_fail = false; max_steps = 8000; max_executions = 0 };
    { scenario = zmsq_chaos_buffered; mode = Rand { executions = 150; seed = 0xC4A6 };
      expect_fail = false; max_steps = 20_000; max_executions = 0 };
    (* PR 7 race-detector twins: the seeded true positive, its benign-declared
       double, and the two fence false-positive guards. *)
    { scenario = race_plain ~benign:false; mode = Dfs; expect_fail = true;
      max_steps = 200; max_executions = 20_000 };
    { scenario = race_plain ~benign:true; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = race_lock_fence; mode = Dfs; expect_fail = false;
      max_steps = 200; max_executions = 20_000 };
    { scenario = race_ec_fence; mode = Dfs; expect_fail = false;
      max_steps = 400; max_executions = 50_000 };
    (* PR 8 sharding pairs: the sticky re-roll and two-choice-sweep
       decisions as exhaustively explored miniature twins... *)
    { scenario = shard_reroll_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 300; max_executions = 20_000 };
    { scenario = shard_reroll_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 300; max_executions = 20_000 };
    { scenario = shard_stale_max_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 300; max_executions = 20_000 };
    { scenario = shard_stale_max_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 300; max_executions = 20_000 };
    (* ...and the real sharded queue under the random scheduler. *)
    { scenario = zmsq_shard_conserve; mode = Rand { executions = 200; seed = 0x54A2 };
      expect_fail = false; max_steps = 8000; max_executions = 0 };
    (* The combined family wait as an exhaustively explored miniature
       twin (the buggy variant parks on one shard's word and must be
       caught). *)
    { scenario = shard_wait_mini ~buggy:false; mode = Dfs; expect_fail = false;
      max_steps = 400; max_executions = 50_000 };
    { scenario = shard_wait_mini ~buggy:true; mode = Dfs; expect_fail = true;
      max_steps = 400; max_executions = 50_000 };
  ]

let find name = List.find_opt (fun e -> e.scenario.Explore.name = name) all

let run_entry e =
  match e.mode with
  | Dfs -> Explore.dfs ~max_steps:e.max_steps ~max_executions:e.max_executions e.scenario
  | Rand { executions; seed } ->
      Explore.random ~max_steps:e.max_steps ~executions ~seed e.scenario

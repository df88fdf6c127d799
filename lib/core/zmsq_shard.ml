(* lint: prim-functorized *)

(* Sharded ZMSQ-of-ZMSQs (ROADMAP item 1, after the Engineering MultiQueues
   line — arXiv 2504.11652, 2107.01350): [params.shards] independent ZMSQ
   instances composed behind the single-queue API.

   - Inserts use *sticky routing*: a handle keeps its randomly chosen shard
     for [params.stickiness] consecutive inserts, re-rolling early when the
     shard reports node-trylock contention or a consumer-demand flush
     (Zmsq_core's [insert_contended] hint).
   - Extraction uses *power-of-two-choices* over per-shard cached maxima
     (padded atomics): sample two distinct shards, extract from the one
     whose cached maximum is larger, falling back to the other and then to
     a full sweep — so [extract] returns none only after every shard was
     visited.
   - Lifecycle reuses Zmsq_core's Open -> Draining -> Closed machine
     per shard: [close] fans out, a drain completes only when every shard
     is exactly empty, and orphan reclamation sweeps all shards.

   With [shards = 1] every operation delegates directly to the single inner
   queue — bit-for-bit the plain implementation (the property suite checks
   this). *)

module Params = Params
module Elt = Zmsq_pq.Elt
module Rng = Zmsq_util.Rng
module Metrics = Zmsq_obs.Metrics
module Trace = Zmsq_obs.Trace
module Obs_level = Zmsq_obs.Level

(** The single-queue API plus shard introspection. *)
module type SHARDED = sig
  include Zmsq_core.S

  val shard_count : t -> int

  val shard_sizes : t -> int array
  (** Per-shard element counts (same caveats as [length]). *)

  val shard_metrics : t -> Zmsq_obs.Metrics.t array
  (** Each inner queue's private metrics registry, in shard order (the
      outer registry from [metrics] carries only the routing counters). *)
end

module Make_prim (P : Zmsq_prim.Intf.PRIM) (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) :
  SHARDED = struct
  module Atomic = P.Atomic
  module Plain = P.Plain
  module Q = Zmsq_core.Make_prim (P) (L) (Set)

  (* Cached per-shard maxima live in a stride-8 array of boxed atomics
     (same padding trick as Zmsq_obs.Metrics): live slots sit a cache line
     apart, so one shard's insert-side CAS-max traffic does not invalidate
     the others' lines. *)
  let stride = 8

  type mcounters = {
    c_rerolls : Metrics.counter;
    c_two_choice : Metrics.counter;
    c_stale_max : Metrics.counter;
    c_sweeps : Metrics.counter;
    c_empty_rechecks : Metrics.counter;
  }

  type t = {
    params : Params.t;
    n : int; (* params.shards, hoisted *)
    shards : Q.t array;
    cmax : Elt.t Atomic.t array; (* lint: padded — stride-8 boxed slots like Metrics *)
    hseed : int Atomic.t; (* lint: unpadded handle-RNG seed cursor; touched once per register *)
    handles_mu : P.Mutex.t;
    handles : handle list Plain.t; (* lint: guarded-by handles_mu *)
    obs_on : bool;
    metrics : Metrics.t;
    mc : mcounters;
    tr : Trace.t option; (* Some iff params.obs = Full *)
  }

  and handle = {
    s : t;
    inner : Q.handle array; (* one inner handle per shard, registered eagerly *)
    rng : Rng.t;
    cur : int Plain.t; (* sticky insert shard; handle-private *)
    left : int Plain.t; (* remaining sticky credit; handle-private *)
    owner : int Atomic.t; (* lint: unpadded outer ownership word; CAS only on reclaim paths *)
  }

  let name = Printf.sprintf "zmsq-shard(%s,%s)" Set.name L.name

  (* A sweep visits shards one at a time: another shard may momentarily be
     non-empty between visits, so a [none] result is not a linearizable
     emptiness witness once [shards > 1]. The guarantee that *does* hold
     (and that the drain path relies on): [extract] re-checks the per-shard
     sizes before reporting empty, and each inner extract never returns
     [none] while its own shard holds published or staged elements — so
     a [none] means every shard was observed exactly empty at some point
     during the call, merely not all at the same instant. *)
  let exact_emptiness = false

  let shard_seed = Atomic.make 0x51AD

  (* Outer ownership words (mirrors Zmsq_core's handle states). *)
  let own_live = 0

  let own_orphaned = 1
  let own_reclaimed = 2
  let own_unregistered = 3

  let[@inline] cmax_get t i = Atomic.get t.cmax.(i * stride)
  let[@inline] cmax_set t i e = Atomic.set t.cmax.(i * stride) e

  (* Monotonic CAS-max: raise the cached maximum toward [e]; losing the CAS
     means someone published a larger value, which is fine. *)
  let rec cmax_bump t i e =
    let a = t.cmax.(i * stride) in
    let cur = Atomic.get a in
    if (Elt.is_none cur || cur < e) && not (Atomic.compare_and_set a cur e) then
      cmax_bump t i e

  (* Refresh a shard's cached maximum from its live peek — called after an
     extraction from that shard (successful or not) so a stale value cannot
     keep attracting two-choice traffic. *)
  let[@inline] cmax_refresh t i = cmax_set t i (Q.peek t.shards.(i))

  let[@inline] tick t c = if t.obs_on then Metrics.incr c

  let[@inline] note t i =
    match t.tr with None -> () | Some tr -> Trace.instant tr ~arg:i Trace.Shard_select

  let create ?(params = Params.default) () =
    let params = Params.validate params in
    let n = params.shards in
    (* Each inner queue gets a derived fixed seed when the outer one is
       fixed (distinct streams per shard, and shard 0 keeps the outer seed
       so [shards = 1] is bit-for-bit the plain queue). *)
    let inner_params i =
      match params.seed with
      | None -> params
      | Some s -> { params with seed = Some (s + (i * 0x3C6EF372)) }
    in
    (* A *family*: the inner queues share one eventcount, so a blocking
       consumer of the whole shard set can take a single combined wait
       (see [extract_blocking] below) instead of parking on one shard at a
       time. *)
    let shards = Q.create_family ~params_of:inner_params n in
    let metrics = Metrics.create ~name () in
    let t =
      {
        params;
        n;
        shards;
        cmax = Array.init (n * stride) (fun _ -> Atomic.make Elt.none);
        hseed =
          Atomic.make
            (match params.seed with
            | Some s -> s lxor 0x5EED
            | None -> Atomic.fetch_and_add shard_seed 0x6B43A9B5);
        handles_mu = P.Mutex.create ();
        handles = Plain.make ~name:"zmsq_shard.handles" [];
        obs_on = Obs_level.counting params.obs;
        metrics;
        mc =
          {
            c_rerolls = Metrics.counter metrics "shard_rerolls_total";
            c_two_choice = Metrics.counter metrics "shard_two_choice_total";
            c_stale_max = Metrics.counter metrics "shard_stale_max_total";
            c_sweeps = Metrics.counter metrics "shard_fallback_sweeps_total";
            c_empty_rechecks = Metrics.counter metrics "shard_empty_rechecks_total";
          };
        tr = (if Obs_level.tracing params.obs then Some (Trace.create ()) else None);
      }
    in
    Metrics.gauge metrics "shards" (fun () -> n);
    Array.iteri
      (fun i q ->
        Metrics.gauge metrics (Printf.sprintf "shard%d_size" i) (fun () -> Q.length q);
        Metrics.gauge metrics
          (Printf.sprintf "shard%d_max_priority" i)
          (fun () ->
            let m = cmax_get t i in
            if Elt.is_none m then -1 else Elt.priority m))
      shards;
    t

  let params t = t.params
  let metrics t = t.metrics
  let trace t = t.tr
  let shard_count t = t.n
  let shard_sizes t = Array.map Q.length t.shards
  let shard_metrics t = Array.map Q.metrics t.shards

  (* {2 Handle registry (outer ownership mirrors Zmsq_core's protocol)} *)

  let with_handles_mu t f =
    P.Mutex.lock t.handles_mu;
    Fun.protect ~finally:(fun () -> P.Mutex.unlock t.handles_mu) f

  (* All-or-nothing inner registration: if shard [i] rejects (hazard table
     full), the handles already taken on shards [0..i-1] are returned before
     the failure propagates, so a caller that scavenges and retries doesn't
     leak a slot per attempt. *)
  let register_all shards =
    let taken = ref [] in
    try
      Array.map
        (fun q ->
          let h = Q.register q in
          taken := h :: !taken;
          h)
        shards
    with e ->
      List.iter Q.unregister !taken;
      raise e

  let register t =
    let h =
      {
        s = t;
        inner = register_all t.shards;
        rng = Rng.create ~seed:(Atomic.fetch_and_add t.hseed 0x9E3779B9) ();
        cur = Plain.make ~name:"zmsq_shard.handle.cur" ~benign:"handle-private routing state" 0;
        left =
          Plain.make ~name:"zmsq_shard.handle.left" ~benign:"handle-private routing state" 0;
        owner = Atomic.make own_live;
      }
    in
    Plain.set h.cur (Rng.int h.rng t.n);
    Plain.set h.left t.params.stickiness;
    with_handles_mu t (fun () -> Plain.set t.handles (h :: Plain.get t.handles));
    h

  let forget_handle t h =
    with_handles_mu t (fun () ->
        Plain.set t.handles (List.filter (fun h' -> h' != h) (Plain.get t.handles)))

  let handle_state h =
    let s = Atomic.get h.owner in
    if s = own_live then Zmsq_core.Live
    else if s = own_orphaned then Zmsq_core.Orphaned
    else if s = own_reclaimed then Zmsq_core.Reclaimed
    else Zmsq_core.Unregistered

  let orphan h =
    (* Only the outer word flips here: the inner handles stay [Live] until
       a scavenger wins the outer CAS in [reclaim_orphans], so a wrongly
       presumed-dead owner that resurrects (below) never races the inner
       queues' own orphan machinery. *)
    ignore (Atomic.compare_and_set h.owner own_live own_orphaned)

  let rec ensure_owner h fname =
    let s = Atomic.get h.owner in
    if s = own_live then ()
    else if s = own_orphaned then begin
      if not (Atomic.compare_and_set h.owner own_orphaned own_live) then ensure_owner h fname
    end
    else if s = own_reclaimed then
      invalid_arg (fname ^ ": handle was orphaned and reclaimed")
    else invalid_arg (fname ^ ": handle was unregistered")

  let unregister h =
    let rec claim () =
      let s = Atomic.get h.owner in
      if s = own_live || s = own_orphaned then begin
        if not (Atomic.compare_and_set h.owner s own_unregistered) then claim ()
      end
      else if s = own_reclaimed then
        invalid_arg "Zmsq_shard.unregister: handle was orphaned and reclaimed"
      else invalid_arg "Zmsq_shard.unregister: handle already unregistered"
    in
    claim ();
    Array.iter Q.unregister h.inner;
    forget_handle h.s h

  let reclaim_orphans t =
    (* Claim outer-orphaned handles first; only a claim winner orphans the
       inner handles, so the per-shard sweep below can never steal a
       resurrected owner's buffers. *)
    let victims =
      with_handles_mu t (fun () ->
          List.filter (fun h -> Atomic.get h.owner = own_orphaned) (Plain.get t.handles))
    in
    let claimed =
      List.filter
        (fun h -> Atomic.compare_and_set h.owner own_orphaned own_reclaimed)
        victims
    in
    List.iter (fun h -> Array.iter Q.orphan h.inner) claimed;
    let freed =
      if claimed = [] then 0
      else Array.fold_left (fun acc q -> acc + Q.reclaim_orphans q) 0 t.shards
    in
    List.iter (fun h -> forget_handle t h) claimed;
    freed

  (* {2 Lifecycle: fan-out over the per-shard machines} *)

  let close ?(drain = false) t = Array.iter (fun q -> Q.close ~drain q) t.shards

  let lifecycle t =
    let closed = ref 0 and open_ = ref 0 in
    Array.iter
      (fun q ->
        match Q.lifecycle q with
        | Zmsq_core.Closed -> incr closed
        | Zmsq_core.Open -> incr open_
        | Zmsq_core.Draining -> ())
      t.shards;
    if !closed = t.n then Zmsq_core.Closed
    else if !open_ = t.n then Zmsq_core.Open
    else Zmsq_core.Draining

  (* {2 Sticky insert routing} *)

  let reroll h =
    let t = h.s in
    let i = Rng.int h.rng t.n in
    Plain.set h.cur i;
    Plain.set h.left t.params.stickiness;
    tick t t.mc.c_rerolls;
    note t i;
    i

  let insert h e =
    ensure_owner h "Zmsq_shard.insert";
    let t = h.s in
    if t.n = 1 then begin
      Q.insert h.inner.(0) e;
      cmax_bump t 0 e
    end
    else begin
      let left = Plain.get h.left in
      let i = if left <= 0 then reroll h else Plain.get h.cur in
      Q.insert h.inner.(i) e;
      cmax_bump t i e;
      (* Spend one sticky credit; contention (or a consumer-demand flush)
         on the chosen shard forfeits the rest so the next insert spreads. *)
      if Q.insert_contended h.inner.(i) then Plain.set h.left 0
      else Plain.set h.left (left - 1)
    end

  let flush h =
    ensure_owner h "Zmsq_shard.flush";
    Array.iter Q.flush h.inner

  let insert_contended h = Q.insert_contended h.inner.(Plain.get h.cur)

  (* {2 Two-choice extraction} *)

  (* Visit every shard once, starting at a random offset so concurrent
     sweepers do not convoy on shard 0. Driving [Q.extract] on each shard
     also advances any per-shard drain that is waiting on emptiness. *)
  let sweep h =
    let t = h.s in
    tick t t.mc.c_sweeps;
    let start = Rng.int h.rng t.n in
    let v = ref Elt.none in
    let k = ref 0 in
    while Elt.is_none !v && !k < t.n do
      let i = (start + !k) mod t.n in
      v := Q.extract h.inner.(i);
      cmax_refresh t i;
      incr k
    done;
    !v

  let extract_n h =
    let t = h.s in
    tick t t.mc.c_two_choice;
    let i = Rng.int h.rng t.n in
    let j =
      let j = Rng.int h.rng (t.n - 1) in
      if j >= i then j + 1 else j
    in
    let mi = cmax_get t i and mj = cmax_get t j in
    let a, b = if Elt.is_none mj || ((not (Elt.is_none mi)) && mi >= mj) then (i, j) else (j, i) in
    note t a;
    let v = Q.extract h.inner.(a) in
    cmax_refresh t a;
    if not (Elt.is_none v) then v
    else begin
      (* The winning cached maximum was stale (buffered, already claimed,
         or never refreshed): fall back to the loser, then sweep — never
         report [none] while some shard still holds elements we can see. *)
      if not (Elt.is_none (if a = i then mi else mj)) then tick t t.mc.c_stale_max;
      let v = Q.extract h.inner.(b) in
      cmax_refresh t b;
      if not (Elt.is_none v) then v else sweep h
    end

  let cmax_refresh_all t =
    for i = 0 to t.n - 1 do
      cmax_refresh t i
    done

  let rec extract_aux h ~retried =
    let t = h.s in
    let v = if t.n = 1 then Q.extract h.inner.(0) else extract_n h in
    if t.n = 1 then cmax_refresh t 0;
    if not (Elt.is_none v) then v
    else if not retried then begin
      (* Empty-looking sweep: scavenge outer-orphaned producers (their
         staged buffers are invisible to the inner piggyback until the
         outer claim runs) and retry once if anything was published. *)
      if reclaim_orphans t > 0 then extract_aux h ~retried:true
      else if t.n > 1 && Array.exists (fun q -> Q.length q > 0) t.shards then begin
        (* The sweep raced concurrent movement: a shard reports a nonzero
           size even though every visit came back empty (an element landed
           on a shard after its turn). Each *inner* extract never returns
           none while its own shard holds reachable elements, so the only
           way to miss is across shards — refresh every cached maximum
           from the live peeks and run one more full round rather than
           report empty on a shard set that visibly holds elements. *)
        tick t t.mc.c_empty_rechecks;
        cmax_refresh_all t;
        extract_aux h ~retried:true
      end
      else Elt.none
    end
    else Elt.none

  let extract h =
    ensure_owner h "Zmsq_shard.extract";
    extract_aux h ~retried:false

  (* {2 Blocking extraction: one combined wait over the whole shard set}

     The inner queues are created as a *family* sharing one eventcount
     ([Q.create_family]): every shard's insert, bulk flush and close
     signals the same counter. A blocking extractor takes its ticket
     against that counter — inside [family_wait], *after* the two-choice
     sweep came back empty — so a publication into any shard between the
     sweep and the sleep leaves the insert count above the ticket and the
     wait returns immediately. This replaces the old rotating 200µs park
     slices, which burned a timed syscall per shard per slice while idle
     and could sleep through a whole slice on shard [i] while shard [j]
     had just been signalled (the shard-wait DFS mini-pair in
     lib/check/scenarios.ml replays exactly that lost-wake shape against
     the rotation and shows the combined wait immune to it).

     Shutdown: [close] fans out to every inner queue and each close (or
     per-shard drain completion) poisons the shared eventcount, so no
     waiter stays parked past the *first* shard's shutdown. During a
     multi-shard drain the early poison degrades later waits to polling
     sweeps until the remaining shards finish — bounded by the drain
     itself, since draining shards are emptying and closing is terminal. *)

  let extract_timeout h ~timeout_ns =
    ensure_owner h "Zmsq_shard.extract_timeout";
    let t = h.s in
    if t.n = 1 then Q.extract_timeout h.inner.(0) ~timeout_ns
    else begin
      (* Same boundary clamp as the single-queue path: negative budgets
         degrade to a try-pop, [now + timeout_ns] saturates instead of
         wrapping negative, and wait slices are capped so the remaining
         budget never overflows downstream deadline arithmetic. *)
      let timeout_ns = if timeout_ns < 0 then 0 else timeout_ns in
      let now0 = Zmsq_util.Timing.now_ns () in
      let deadline =
        if timeout_ns > max_int - now0 then max_int else now0 + timeout_ns
      in
      let max_slice_ns = 3_600_000_000_000 (* 1h *) in
      let rec loop () =
        let v = extract_aux h ~retried:false in
        if not (Elt.is_none v) then v
        else if lifecycle t = Zmsq_core.Closed then Elt.none
        else begin
          let remaining = deadline - Zmsq_util.Timing.now_ns () in
          if remaining <= 0 then
            (* Final poll (same contract as the single-queue deadline
               path): claim an element that arrived in the last window. *)
            extract_aux h ~retried:false
          else begin
            let slice = if remaining > max_slice_ns then max_slice_ns else remaining in
            ignore (Q.family_wait_for t.shards.(0) ~timeout_ns:slice);
            loop ()
          end
        end
      in
      loop ()
    end

  let extract_blocking h =
    ensure_owner h "Zmsq_shard.extract_blocking";
    let t = h.s in
    if t.n = 1 then Q.extract_blocking h.inner.(0)
    else begin
      let rec loop () =
        let v = extract_aux h ~retried:false in
        if not (Elt.is_none v) then v
        else if lifecycle t = Zmsq_core.Closed then
          (* One final non-blocking attempt after observing Closed (the
             single-queue contract): an element published between the
             sweep above and the close is still claimable. [none] is the
             closed-and-empty outcome. *)
          extract_aux h ~retried:false
        else begin
          Q.family_wait t.shards.(0);
          loop ()
        end
      in
      loop ()
    end

  (* {2 Whole-queue views} *)

  let length t = Array.fold_left (fun acc q -> acc + Q.length q) 0 t.shards
  let is_empty t = Array.for_all Q.is_empty t.shards

  let peek t =
    Array.fold_left
      (fun best q ->
        let v = Q.peek q in
        if Elt.is_none best || ((not (Elt.is_none v)) && v > best) then v else best)
      Elt.none t.shards

  module Debug = struct
    let check_invariant t = Array.for_all Q.Debug.check_invariant t.shards

    let leaf_level t =
      Array.fold_left (fun acc q -> max acc (Q.Debug.leaf_level q)) 0 t.shards

    let node_counts t =
      let per = Array.map Q.Debug.node_counts t.shards in
      let len = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 per in
      Array.init len (fun i ->
          Array.fold_left
            (fun acc a -> if i < Array.length a then acc + a.(i) else acc)
            0 per)

    let fold_elements t f init =
      Array.fold_left (fun acc q -> Q.Debug.fold_elements q f acc) init t.shards

    let elements t = fold_elements t (fun acc e -> e :: acc) []

    let pool_level t = Array.fold_left (fun acc q -> acc + Q.Debug.pool_level q) 0 t.shards
    let buffered t = Array.fold_left (fun acc q -> acc + Q.Debug.buffered q) 0 t.shards

    let live_handles t =
      with_handles_mu t (fun () ->
          List.length
            (List.filter
               (fun h ->
                 let s = Atomic.get h.owner in
                 s = own_live || s = own_orphaned)
               (Plain.get t.handles)))

    let counters t =
      Array.fold_left
        (fun (acc : Zmsq_core.counters) q ->
          let c = Q.Debug.counters q in
          {
            Zmsq_core.refills = acc.refills + c.Zmsq_core.refills;
            splits = acc.splits + c.Zmsq_core.splits;
            forced_inserts = acc.forced_inserts + c.Zmsq_core.forced_inserts;
            min_swaps = acc.min_swaps + c.Zmsq_core.min_swaps;
            insert_retries = acc.insert_retries + c.Zmsq_core.insert_retries;
            expands = acc.expands + c.Zmsq_core.expands;
            swap_downs = acc.swap_downs + c.Zmsq_core.swap_downs;
            buf_flushes = acc.buf_flushes + c.Zmsq_core.buf_flushes;
            buf_claims = acc.buf_claims + c.Zmsq_core.buf_claims;
            orphan_reclaims = acc.orphan_reclaims + c.Zmsq_core.orphan_reclaims;
          })
        {
          Zmsq_core.refills = 0;
          splits = 0;
          forced_inserts = 0;
          min_swaps = 0;
          insert_retries = 0;
          expands = 0;
          swap_downs = 0;
          buf_flushes = 0;
          buf_claims = 0;
          orphan_reclaims = 0;
        }
        t.shards

    let eventcount_stats t =
      Array.fold_left
        (fun acc q ->
          match (acc, Q.Debug.eventcount_stats q) with
          | None, s -> s
          | s, None -> s
          | Some (a, b), Some (c, d) -> Some (a + c, b + d))
        None t.shards

    let hazard_domain_stats t =
      Array.fold_left
        (fun acc q ->
          match (acc, Q.Debug.hazard_domain_stats q) with
          | None, s -> s
          | s, None -> s
          | Some (a, b, c), Some (d, e, f) -> Some (a + d, b + e, c + f))
        None t.shards
  end
end

module Make (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) : SHARDED =
  Make_prim (Zmsq_prim.Native) (L) (Set)

module Default = Make (Zmsq_sync.Lock.Tatas) (Array_set)

(* lint: prim-functorized *)

module Params = Params
module Set_intf = Set_intf
module List_set = List_set
module Array_set = Array_set
module Rng = Zmsq_util.Rng
module Elt = Zmsq_pq.Elt
module Metrics = Zmsq_obs.Metrics
module Trace = Zmsq_obs.Trace
module Obs_level = Zmsq_obs.Level

type counters = {
  refills : int;
  splits : int;
  forced_inserts : int;
  min_swaps : int;
  insert_retries : int;
  expands : int;
  swap_downs : int;
  buf_flushes : int;
  buf_claims : int;
  orphan_reclaims : int;
}

(* Queue lifecycle (DESIGN.md Section 9): [Open] accepts everything;
   [Draining] rejects inserts but keeps extraction live until the queue is
   exactly empty; [Closed] additionally poisons the eventcount so blocked
   extractors return instead of sleeping forever. *)
type lifecycle = Open | Draining | Closed

(* Handle ownership (DESIGN.md Section 9): [Live] is the normal single-owner
   state; [Orphaned] marks a handle whose owner is presumed dead, making its
   staged buffer and hazard record claimable by the scavenger; [Reclaimed]
   means the scavenger won that claim; [Unregistered] means the owner
   released the handle itself. *)
type handle_state = Live | Orphaned | Reclaimed | Unregistered

exception Queue_closed

module type S = sig
  type t
  type handle

  val create : ?params:Params.t -> unit -> t
  val params : t -> Params.t

  include Zmsq_pq.Intf.CONC with type t := t and type handle := handle

  val extract_blocking : handle -> Zmsq_pq.Elt.t
  val extract_timeout : handle -> timeout_ns:int -> Zmsq_pq.Elt.t
  val flush : handle -> unit
  val insert_contended : handle -> bool
  val close : ?drain:bool -> t -> unit
  val lifecycle : t -> lifecycle
  val orphan : handle -> unit
  val handle_state : handle -> handle_state
  val reclaim_orphans : t -> int
  val is_empty : t -> bool
  val peek : t -> Zmsq_pq.Elt.t
  val metrics : t -> Zmsq_obs.Metrics.t
  val trace : t -> Zmsq_obs.Trace.t option

  module Debug : sig
    val check_invariant : t -> bool
    val leaf_level : t -> int
    val node_counts : t -> int array
    val elements : t -> Zmsq_pq.Elt.t list
    val fold_elements : t -> ('a -> Zmsq_pq.Elt.t -> 'a) -> 'a -> 'a
    val pool_level : t -> int
    val buffered : t -> int
    val live_handles : t -> int
    val counters : t -> counters
    val eventcount_stats : t -> (int * int) option
    val hazard_domain_stats : t -> (int * int * int) option
  end
end

let max_levels = 28

(** The single-queue API plus queue *families*: sets of queues sharing one
    eventcount, so a consumer of the whole set can take one combined wait
    instead of parking on one member at a time. Only the plain functors
    expose this — a sharded queue is itself built *from* a family and
    cannot share its eventcount outward again. *)
module type S_FAMILY = sig
  include S

  val create_family : params_of:(int -> Params.t) -> int -> t array
  (** [create_family ~params_of n] builds [n] independent queues sharing
      one eventcount: every member's insert, bulk flush and close
      signals through it. All members must agree on
      [Params.blocking]. Used by {!Zmsq_shard}. *)

  val family_wait : t -> unit
  (** Block until any member of this queue's family publishes an element
      or closes (returns immediately once the shared eventcount is
      poisoned). The wake carries no affinity — the caller must re-poll
      every member. Raises [Invalid_argument] when not blocking. *)

  val family_wait_for : t -> timeout_ns:int -> bool
  (** Like {!family_wait} with a deadline; [false] means timed out. *)
end

module Make_prim (P : Zmsq_prim.Intf.PRIM) (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) :
  S_FAMILY = struct
  module Atomic = P.Atomic
  module Mutex = P.Mutex
  module Plain = P.Plain
  module Eventcount = Zmsq_sync.Eventcount.Make (P)
  module Hazard = Zmsq_hp.Hazard.Make (P)

  type tnode = {
    lock : L.t;
    set : Set.t; (* lint: guarded-by lock *)
    max : Elt.t Atomic.t; (* lint: unpadded caches, written under [lock], read anywhere; co-touched with the node lock *)
    min : Elt.t Atomic.t; (* lint: unpadded same: node-granular contention dominates *)
    count : int Atomic.t; (* lint: unpadded same: node-granular contention dominates *)
  }

  let fresh_tnode () =
    {
      lock = L.create ();
      set = Set.create ();
      max = Atomic.make Elt.none;
      min = Atomic.make Elt.none;
      count = Atomic.make 0;
    }

  (* Refresh the cached fields from the set (under the node's lock). *)
  (* lint: holds lock *)
  let refresh n =
    Atomic.set n.max (Set.max_elt n.set);
    Atomic.set n.min (Set.min_elt n.set);
    Atomic.set n.count (Set.size n.set)

  (* Per-domain sharded event counters (replacing the contended global
     atomics this struct used to carry) and optional latency histograms,
     both living in the queue's private [Zmsq_obs.Metrics] registry. *)
  type mcounters = {
    c_refills : Metrics.counter;
    c_splits : Metrics.counter;
    c_forced : Metrics.counter;
    c_min_swaps : Metrics.counter;
    c_retries : Metrics.counter;
    c_expands : Metrics.counter;
    c_swap_downs : Metrics.counter;
    c_buf_claims : Metrics.counter;
    c_buf_flush_full : Metrics.counter;
    c_buf_flush_demand : Metrics.counter;
    c_buf_flush_drain : Metrics.counter;
    c_buf_flush_unregister : Metrics.counter;
    c_buf_flush_manual : Metrics.counter;
    c_buf_flush_reclaim : Metrics.counter;
    c_orphan_reclaims : Metrics.counter;
    c_qos_samples : Metrics.counter;
    c_qos_relaxed : Metrics.counter;
  }

  type mhists = {
    h_insert : Metrics.histogram;
    h_extract : Metrics.histogram;
    h_refill : Metrics.histogram;
    h_flush : Metrics.histogram;
    h_reclaim : Metrics.histogram;
    h_rank_gap : Metrics.histogram;
    h_rank_err : Metrics.histogram;
    h_sojourn : Metrics.histogram;
  }

  (* Lifecycle states, packed into one atomic int. *)
  let st_open = 0

  let st_draining = 1
  let st_closed = 2

  (* Handle ownership states (see [handle_state] in the public API). *)
  let own_live = 0

  let own_orphaned = 1
  let own_reclaimed = 2
  let own_unregistered = 3

  type t = {
    params : Params.t;
    levels : tnode array Atomic.t array; (* lint: unpadded read-mostly; written only under expand_mu *)
    leaf_level : int Atomic.t; (* lint: unpadded read-mostly; written only under expand_mu *)
    expand_mu : Mutex.t;
    size : int Atomic.t; (* lint: unpadded global element count: exact emptiness; hot FAA accepted, perf-CI gated *)
    pool : Elt.t Atomic.t array;  (* lint: unpadded helper pool slots; batch-refilled under the root lock *)
    pool_next : int Atomic.t; (* lint: unpadded helper cursor; contended only during refill windows *)
    pool_fill : int Plain.t; (* last refill size; guarded by the root lock *)
    buffer_on : bool; (* params.buffer_len > 0, hoisted for the hot paths *)
    buffered : int Atomic.t; (* lint: unpadded staged-in-buffers count; touched once per batch, not per op *)
    flush_demand : bool Atomic.t; (* lint: unpadded consumer -> producers backlog signal; read-mostly, set on empty *)
    state : int Atomic.t; (* lint: unpadded lifecycle st_open/st_draining/st_closed; written twice per queue lifetime *)
    handles_mu : Mutex.t;
    handles : handle list Plain.t; (* lint: guarded-by handles_mu *)
    ec : Eventcount.t option;
    hp : tnode Hazard.t option; (* Some iff params.hazards *)
    obs_on : bool; (* params.obs <> Off, hoisted for the hot paths *)
    obs_full : bool; (* params.obs = Full *)
    sample_mask : int; (* (1 lsl obs_sample_shift) - 1; QoS sampling at Full *)
    probe_key : Elt.t Atomic.t array; (* lint: unpadded sojourn probes: sampled in-flight keys, 1-in-2^k traffic *)
    probe_ts : int Atomic.t array; (* lint: unpadded insert timestamp per armed probe; sampled traffic only *)
    probe_armed : int Atomic.t; (* lint: unpadded armed probe count: extract's one-read gate; sampled writes *)
    drain_t0 : int Atomic.t; (* lint: unpadded Draining-entry timestamp; written once per drain *)
    hseed : int Atomic.t; (* lint: unpadded handle-RNG seed cursor; touched once per register *)
    metrics : Metrics.t;
    mc : mcounters;
    mh : mhists;
    tr : Trace.t option; (* Some iff obs_full *)
  }

  and handle = {
    q : t;
    rng : Rng.t;
    hp_thread : tnode Hazard.thread option;
    buf : Elt.t array; (* staged inserts, sorted ascending in [0, buf_n) *)
    buf_n : int Plain.t; (* race: benign — ownership handoff, see below *)
    buf_target : int Plain.t; (* adaptive fill threshold in [1, buffer_len] *)
    contended : bool Plain.t; (* handle-private: last insert/flush hit a node trylock failure *)
    owner : int Atomic.t; (* lint: unpadded own_live/orphaned/reclaimed/unregistered word; CAS only on reclaim paths *)
    (* [buf]/[buf_n]/[buf_target] are owned by whoever the [owner] word says
       owns the handle: the registering domain while [Live], the scavenger
       that won the CAS once [Reclaimed] (handles must not be shared);
       [q.buffered] and [owner] itself are the only cross-domain fields.
       The handoff is racy by design: the CAS on [owner] orders the *claim*
       but not the owner's final buffer writes, which the protocol instead
       covers by requiring the owner to be quiescent (crashed or between
       operations) before [orphan] is ever called — so the cells are
       declared [~benign] to the race detector rather than synchronized. *)
  }

  let name = Printf.sprintf "zmsq(%s,%s)" Set.name L.name
  let exact_emptiness = true

  (* Process-global fallback stream for handle-RNG seeds; [Params.seed]
     replaces it with a per-queue cursor so registration order alone
     determines every handle's probe sequence (the property suite's
     bit-for-bit shard comparison relies on this). *)
  let handle_seed = Atomic.make 0x2A5C

  (* Sojourn probes: a small fixed pool of (key, insert-timestamp) pairs.
     Elements are packed ints with no room for a timestamp, so sampled
     inserts arm a probe instead and the matching extract reads its age. *)
  let nprobes = 8

  (* [ec] is threaded in rather than built here so [create_family] can hand
     every member the same eventcount (the sharded consumers' combined
     wait); [create] passes a private one. *)
  let create_aux ~ec (params : Params.t) =
    let levels = Array.init max_levels (fun _ -> Atomic.make [||]) in
    for l = 0 to params.initial_levels - 1 do
      Atomic.set levels.(l) (Array.init (1 lsl l) (fun _ -> fresh_tnode ()))
    done;
    let metrics = Metrics.create ~name () in
    let q =
      {
        params;
        levels;
        leaf_level = Atomic.make (params.initial_levels - 1);
        expand_mu = Mutex.create ();
        size = Atomic.make 0;
        pool = Array.init (max params.batch 1) (fun _ -> Atomic.make Elt.none);
        pool_next = Atomic.make (-1);
        pool_fill = Plain.make ~name:"zmsq.pool_fill" 0;
        buffer_on = params.buffer_len > 0;
        buffered = Atomic.make 0;
        flush_demand = Atomic.make false;
        state = Atomic.make st_open;
        handles_mu = Mutex.create ();
        handles = Plain.make ~name:"zmsq.handles" [];
        ec;
        hp =
          (if params.hazards then
             Some (Hazard.create ~slots_per_thread:3 ~recycle:(fun (_ : tnode) -> ()) ())
           else None);
        obs_on = Obs_level.counting params.obs;
        obs_full = Obs_level.tracing params.obs;
        sample_mask = (1 lsl params.obs_sample_shift) - 1;
        probe_key = Array.init nprobes (fun _ -> Atomic.make Elt.none);
        probe_ts = Array.init nprobes (fun _ -> Atomic.make 0);
        probe_armed = Atomic.make 0;
        drain_t0 = Atomic.make 0;
        hseed =
          Atomic.make
            (match params.seed with
            | Some s -> s
            | None -> Atomic.fetch_and_add handle_seed 0x6B43A9B5);
        metrics;
        mc =
          {
            c_refills = Metrics.counter metrics "refills_total";
            c_splits = Metrics.counter metrics "splits_total";
            c_forced = Metrics.counter metrics "forced_inserts_total";
            c_min_swaps = Metrics.counter metrics "min_swaps_total";
            c_retries = Metrics.counter metrics "insert_retries_total";
            c_expands = Metrics.counter metrics "expands_total";
            c_swap_downs = Metrics.counter metrics "swap_downs_total";
            c_buf_claims = Metrics.counter metrics "buf_claims_total";
            c_buf_flush_full = Metrics.counter metrics "buf_flush_full_total";
            c_buf_flush_demand = Metrics.counter metrics "buf_flush_demand_total";
            c_buf_flush_drain = Metrics.counter metrics "buf_flush_drain_total";
            c_buf_flush_unregister = Metrics.counter metrics "buf_flush_unregister_total";
            c_buf_flush_manual = Metrics.counter metrics "buf_flush_manual_total";
            c_buf_flush_reclaim = Metrics.counter metrics "buf_flush_reclaim_total";
            c_orphan_reclaims = Metrics.counter metrics "orphans_reclaimed_total";
            c_qos_samples = Metrics.counter metrics "qos_samples_total";
            c_qos_relaxed = Metrics.counter metrics "qos_relaxed_total";
          };
        mh =
          {
            h_insert = Metrics.histogram metrics "insert_ns";
            h_extract = Metrics.histogram metrics "extract_ns";
            h_refill = Metrics.histogram metrics "refill_ns";
            h_flush = Metrics.histogram metrics "buf_flush_ns";
            h_reclaim = Metrics.histogram metrics "reclaim_flush_ns";
            h_rank_gap = Metrics.histogram metrics "rank_gap_keys";
            h_rank_err = Metrics.histogram metrics "rank_error_sampled";
            h_sojourn = Metrics.histogram metrics "sojourn_ns";
          };
        tr = (if Obs_level.tracing params.obs then Some (Trace.create ()) else None);
      }
    in
    Metrics.gauge metrics "size" (fun () -> Atomic.get q.size);
    Metrics.gauge metrics "leaf_level" (fun () -> Atomic.get q.leaf_level);
    Metrics.gauge metrics "pool_level" (fun () ->
        let n = Atomic.get q.pool_next in
        if q.params.batch = 0 || n < 0 then 0 else n + 1);
    Metrics.gauge metrics "buffered" (fun () -> Atomic.get q.buffered);
    (* 0 = open, 1 = draining, 2 = closed. *)
    Metrics.gauge metrics "closed" (fun () -> Atomic.get q.state);
    (* Age of the oldest armed sojourn probe: how long the oldest sampled
       in-flight element has been waiting. 0 when nothing is armed. *)
    Metrics.gauge metrics "staleness_ns" (fun () ->
        if Atomic.get q.probe_armed = 0 then 0
        else begin
          let now = Zmsq_util.Timing.now_ns () in
          let oldest = ref 0 in
          for i = 0 to nprobes - 1 do
            if not (Elt.is_none (Atomic.get q.probe_key.(i))) then begin
              let age = now - Atomic.get q.probe_ts.(i) in
              if age > !oldest then oldest := age
            end
          done;
          !oldest
        end);
    (match q.tr with
    | Some tr -> Metrics.gauge metrics "trace_dropped_events_total" (fun () -> Trace.dropped tr)
    | None -> ());
    q

  let create ?(params = Params.default) () =
    let params = Params.validate params in
    create_aux
      ~ec:(if params.blocking then Some (Eventcount.create ~initial:0 ()) else None)
      params

  let create_family ~params_of n =
    if n < 1 then invalid_arg "Zmsq.create_family: need at least one member";
    let p0 = Params.validate (params_of 0) in
    let ec = if p0.Params.blocking then Some (Eventcount.create ~initial:0 ()) else None in
    Array.init n (fun i ->
        let p = Params.validate (params_of i) in
        if p.Params.blocking <> p0.Params.blocking then
          invalid_arg "Zmsq.create_family: members disagree on Params.blocking";
        create_aux ~ec p)

  (* The combined wait of the sharded consumers (DESIGN.md Section 10):
     the ticket is taken against the family-shared eventcount, so a
     publication into *any* member between the caller's last sweep and the
     sleep forces an immediate wake — a parked extractor can never sleep
     through a wake on a non-parked shard, which is exactly the defect of
     the old rotating per-shard park slices. Note the poison is shared
     too: the first member to close (or to finish draining) wakes every
     family waiter for good, degrading later waits to polling until the
     remaining members close — acceptable because closing is terminal. *)
  let family_wait q =
    match q.ec with
    | None -> invalid_arg "Zmsq.family_wait: queue created without blocking"
    | Some ec -> Eventcount.wait_before_extract ec

  let family_wait_for q ~timeout_ns =
    match q.ec with
    | None -> invalid_arg "Zmsq.family_wait_for: queue created without blocking"
    | Some ec -> Eventcount.wait_before_extract_for ec ~timeout_ns

  let params t = t.params
  let metrics t = t.metrics
  let trace t = t.tr

  (* Counter ticks are the only per-event cost in the default [Counters]
     mode: one predictable branch plus an uncontended fetch-and-add on the
     domain's own shard. *)
  let[@inline] tick q c = if q.obs_on then Metrics.incr c

  let[@inline] note q kind = match q.tr with None -> () | Some tr -> Trace.instant tr kind

  (* {2 Lifecycle (DESIGN.md Section 9)} *)

  let broadcast q = match q.ec with None -> () | Some ec -> Eventcount.close ec

  let lifecycle q =
    let s = Atomic.get q.state in
    if s = st_open then Open else if s = st_draining then Draining else Closed

  (* In [Draining], advance to [Closed] once the queue is exactly empty —
     nothing staged ([buffered]) and nothing published ([size]). The read
     order matters: inserts are rejected while draining, so nothing new
     stages and [buffered = 0] is stable once observed; reading [size]
     *after* that covers every in-flight flush's publication. The reverse
     order races a flush (publish, then clear staged) into closing a
     nonempty queue. Any thread may complete the drain; the CAS winner
     poisons the eventcount so every blocked extractor observes the
     closed-and-empty outcome. Returns true when the queue is (now)
     closed. *)
  (* Close the Drain span opened when the queue entered [Draining]; called
     by whichever thread wins the Draining -> Closed transition. *)
  let note_drain_end q =
    match q.tr with
    | None -> ()
    | Some tr ->
        let t0 = Atomic.get q.drain_t0 in
        if t0 > 0 then Trace.complete tr ~t0 Trace.Drain

  let try_finish_drain q =
    Atomic.get q.buffered = 0
    && Atomic.get q.size = 0
    &&
    if Atomic.compare_and_set q.state st_draining st_closed then begin
      note q Trace.Close;
      note_drain_end q;
      broadcast q;
      true
    end
    else Atomic.get q.state = st_closed

  (* Should a blocked extractor give up instead of sleeping? True once the
     queue is [Closed] — including the drain-completion transition, which
     the asking extractor performs itself. *)
  let extraction_closed q =
    let s = Atomic.get q.state in
    if s = st_open then false else if s = st_closed then true else try_finish_drain q

  let rec close ?(drain = false) q =
    let s = Atomic.get q.state in
    if s = st_closed then ()
    else if s = st_draining then begin
      if not drain then
        if Atomic.compare_and_set q.state st_draining st_closed then begin
          note q Trace.Close;
          note_drain_end q;
          broadcast q
        end
        else close ~drain q
    end
    else begin
      let target = if drain then st_draining else st_closed in
      if drain then Atomic.set q.drain_t0 (Zmsq_util.Timing.now_ns ());
      if Atomic.compare_and_set q.state st_open target then begin
        note q Trace.Close;
        if drain then ignore (try_finish_drain q) else broadcast q
      end
      else close ~drain q
    end

  (* {2 Handle registry and ownership} *)

  let with_handles_mu q f =
    Mutex.lock q.handles_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock q.handles_mu) f

  let forget_handle q h =
    with_handles_mu q (fun () ->
        Plain.set q.handles (List.filter (fun h' -> h' != h) (Plain.get q.handles)))

  let handle_state h =
    let s = Atomic.get h.owner in
    if s = own_live then Live
    else if s = own_orphaned then Orphaned
    else if s = own_reclaimed then Reclaimed
    else Unregistered

  (* Declare a handle's owner dead. Only meaningful for a thread that is no
     longer executing queue operations — a concurrently-operating owner and
     the scavenger would both touch the staged buffer. A between-operations
     owner that turns out to be alive is safe: its next operation races the
     scavenger on the [owner] word and exactly one of them wins (see
     [ensure_owner]). No-op unless the handle is [Live]. *)
  let orphan h = ignore (Atomic.compare_and_set h.owner own_live own_orphaned)

  (* Ownership gate on every handle operation. [Live] passes with one
     uncontended atomic read. [Orphaned] means someone presumed our owner
     dead while it was between operations: resurrect with a CAS — unless
     the scavenger already won the reclaim race, in which case the buffer
     and hazard record are gone and the operation must fail loudly rather
     than write into recycled state. *)
  let rec ensure_owner h fname =
    let s = Atomic.get h.owner in
    if s = own_live then ()
    else if s = own_orphaned then begin
      if not (Atomic.compare_and_set h.owner own_orphaned own_live) then ensure_owner h fname
    end
    else if s = own_reclaimed then
      invalid_arg (fname ^ ": handle was orphaned and reclaimed")
    else invalid_arg (fname ^ ": handle was unregistered")

  let register q =
    let h =
      {
        q;
        rng = Rng.create ~seed:(Atomic.fetch_and_add q.hseed 0x9E3779B9) ();
        hp_thread = Option.map Hazard.register q.hp;
        buf = Array.make q.params.buffer_len Elt.none;
        buf_n =
          Plain.make ~name:"zmsq.handle.buf_n"
            ~benign:
              "owner-word CAS transfers buffer ownership; the owner is quiescent before \
               orphan/reclaim (see the handle comment)"
            0;
        buf_target =
          Plain.make ~name:"zmsq.handle.buf_target"
            ~benign:"same ownership handoff as buf_n; adaptive hint only" (max 1 (q.params.buffer_len / 4));
        contended =
          Plain.make ~name:"zmsq.handle.contended"
            ~benign:"handle-private contention hint, read only by the owning domain" false;
        owner = Atomic.make own_live;
      }
    in
    with_handles_mu q (fun () -> Plain.set q.handles (h :: Plain.get q.handles));
    h

  let length q = Atomic.get q.size

  let node_at q level slot = (Atomic.get q.levels.(level)).(slot)

  (* Optimistic access to a node: publish a hazard pointer and re-validate,
     exactly the acquire pattern a non-GC runtime needs (Section 3.5).
     Without [params.hazards] (the default) this is a plain read. *)
  let protect_node h ~hpslot level slot =
    match h.hp_thread with
    | None -> node_at h.q level slot
    | Some th ->
        let rec go () =
          let n = node_at h.q level slot in
          Hazard.set th ~slot:hpslot n;
          if node_at h.q level slot == n then n else go ()
        in
        go ()

  let expand q observed_leaf =
    Mutex.lock q.expand_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock q.expand_mu)
      (fun () ->
        if Atomic.get q.leaf_level = observed_leaf then begin
          let next = observed_leaf + 1 in
          if next >= max_levels then failwith "Zmsq: tree height limit reached";
          Atomic.set q.levels.(next) (Array.init (1 lsl next) (fun _ -> fresh_tnode ()));
          Atomic.set q.leaf_level next;
          tick q q.mc.c_expands;
          note q Trace.Expand
        end)

  (* {2 Locking helpers} *)

  let acquire_policy q lock =
    match q.params.lock_policy with
    | Params.Blocking ->
        L.acquire lock;
        true
    | Params.Trylock -> L.try_acquire lock

  (* {2 Insertion (Listing 1)} *)

  (* Probe random leaves for a starting position: either a leaf whose max
     is <= e (then binary-search the root path), or — below the top
     [forced_min_level] levels — a leaf with room for [room] more elements
     that can absorb them in non-head positions. [room = 1] for a single
     insertion; bulk buffer flushes pass the buffer occupancy. *)
  let rec select_position ~room h e =
    let q = h.q in
    let leaf = Atomic.get q.leaf_level in
    let width = 1 lsl leaf in
    let attempts = max leaf 1 in
    let rec probe i =
      if i >= attempts then None
      else begin
        let slot = Rng.int h.rng width in
        let node = protect_node h ~hpslot:0 leaf slot in
        if Atomic.get node.max <= e then Some (slot, false)
        else if
          q.params.forced_insert
          && leaf > q.params.forced_min_level
          && Atomic.get node.count + room <= q.params.target_len
        then Some (slot, true)
        else probe (i + 1)
      end
    in
    match probe 0 with
    | Some (slot, force) -> (leaf, slot, force)
    | None ->
        expand q leaf;
        select_position ~room h e

  (* Binary search over the path from [(leaf, slot)] to the root for the
     shallowest ancestor whose max is <= e; its parent's max exceeds e.
     Reads are optimistic; the caller re-validates under locks. *)
  let search_position h leaf slot e =
    let anc l = slot lsr (leaf - l) in
    let lo = ref 0 and hi = ref leaf in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let n = protect_node h ~hpslot:0 mid (anc mid) in
      if Atomic.get n.max <= e then hi := mid else lo := mid + 1
    done;
    (!hi, anc !hi)

  let forced_insert_at ~traced q node e =
    if not (acquire_policy q node.lock) then false
    else begin
      let ok = e <= Atomic.get node.max && Atomic.get node.count < q.params.target_len in
      if ok then begin
        Set.insert node.set e;
        if e < Atomic.get node.min then Atomic.set node.min e;
        Atomic.incr node.count;
        tick q q.mc.c_forced;
        if traced then note q Trace.Forced_insert
      end;
      L.release node.lock;
      ok
    end

  (* Split an oversized set: keep the upper half in [node], push the lower
     half to the children. Children are locked before [node] is released so
     no extraction can observe the pre-split children with the post-split
     parent (Section 3.4). Recurses if a child overflows in turn.

     Splits never run at the leaf level: forcing expansion from inside a
     split cascade can blow the tree up under tiny target_len (each deep
     split would add a level). A temporarily oversized leaf is harmless —
     the next failed leaf probes expand the tree and it becomes internal. *)
  let rec split_node q level slot node =
    let left = node_at q (level + 1) (2 * slot) in
    let right = node_at q (level + 1) ((2 * slot) + 1) in
    L.acquire left.lock;
    L.acquire right.lock;
    let lower = Set.split_lower node.set in
    refresh node;
    L.release node.lock;
    Array.iteri
      (fun i e -> Set.insert (if i land 1 = 0 then left else right).set e)
      lower;
    refresh left;
    refresh right;
    tick q q.mc.c_splits;
    note q Trace.Split;
    let limit = 2 * q.params.target_len in
    let splittable l = l + 1 < Atomic.get q.leaf_level in
    (* Release (or recurse into) the right child first so lock order stays
       parent-before-child. *)
    if Set.size right.set > limit && splittable (level + 1) then
      split_node q (level + 1) ((2 * slot) + 1) right
    else L.release right.lock;
    if Set.size left.set > limit && splittable (level + 1) then
      split_node q (level + 1) (2 * slot) left
    else L.release left.lock

  (* lint: holds lock *)
  let insert_as_max q level slot node e =
    Set.insert node.set e;
    Atomic.set node.max e;
    if Elt.is_none (Atomic.get node.min) then Atomic.set node.min e;
    Atomic.incr node.count;
    if
      q.params.split
      && Set.size node.set > 2 * q.params.target_len
      && level < Atomic.get q.leaf_level
    then begin
      split_node q level slot node;
      true
    end
    else false (* caller must release the node lock *)

  let regular_insert ~traced h level slot e =
    let q = h.q in
    if level = 0 then begin
      let root = protect_node h ~hpslot:0 0 0 in
      if not (acquire_policy q root.lock) then false
      else if Atomic.get root.max > e then begin
        L.release root.lock;
        false
      end
      else begin
        if not (insert_as_max q 0 0 root e) then L.release root.lock;
        true
      end
    end
    else begin
      let parent = protect_node h ~hpslot:1 (level - 1) (slot / 2) in
      let node = protect_node h ~hpslot:0 level slot in
      if not (acquire_policy q parent.lock) then false
      else if not (acquire_policy q node.lock) then begin
        L.release parent.lock;
        false
      end
      else if e < Atomic.get node.max || e >= Atomic.get parent.max then begin
        L.release node.lock;
        L.release parent.lock;
        false
      end
      else begin
        let pmin = Atomic.get parent.min in
        if
          q.params.min_swap
          && level - 1 > q.params.forced_min_level
          && (not (Elt.is_none pmin))
          && pmin < e
        then begin
          (* Quality enhancement (Section 3.2): e joins the parent's set as
             a non-max element; the parent's old minimum drops into [node].
             Both nodes are already locked, so no extra synchronization. *)
          let moved, new_min = Set.replace_min parent.set e in
          Atomic.set parent.min new_min;
          Set.insert node.set moved;
          if moved > Atomic.get node.max then Atomic.set node.max moved;
          let nmin = Atomic.get node.min in
          if Elt.is_none nmin || moved < nmin then Atomic.set node.min moved;
          Atomic.incr node.count;
          tick q q.mc.c_min_swaps;
          if traced then note q Trace.Min_swap;
          L.release parent.lock;
          (* The dropped minimum can also overflow [node]: split exactly as
             an insert-as-max would (split_node releases the node lock). *)
          if
            q.params.split
            && Set.size node.set > 2 * q.params.target_len
            && level < Atomic.get q.leaf_level
          then split_node q level slot node
          else L.release node.lock;
          true
        end
        else begin
          L.release parent.lock;
          if not (insert_as_max q level slot node e) then L.release node.lock;
          true
        end
      end
    end

  (* [traced]: the caller's sampling draw chose this insert for per-op
     telemetry, so its [forced_insert]/[min_swap] instants are recorded.
     They fire on almost every insert, and an exhaustive instant would
     read the clock inside the critical section each time. *)
  let insert_aux ~traced h e =
    let q = h.q in
    (* Count the element before it lands: extraction spins rather than
       reporting a false empty while an insert is in flight. *)
    Atomic.incr q.size;
    let retried = ref false in
    let rec attempt () =
      let leaf, slot, force = select_position ~room:1 h e in
      if force then begin
        let node = protect_node h ~hpslot:0 leaf slot in
        if not (forced_insert_at ~traced q node e) then begin
          retried := true;
          tick q q.mc.c_retries;
          attempt ()
        end
      end
      else begin
        let ilevel, islot = search_position h leaf slot e in
        if not (regular_insert ~traced h ilevel islot e) then begin
          retried := true;
          tick q q.mc.c_retries;
          attempt ()
        end
      end
    in
    attempt ();
    (* Contention hint for layers above (sticky shard routing re-rolls on
       it); handle-private, refreshed by every tree publication. *)
    Plain.set h.contended !retried;
    match q.ec with None -> () | Some ec -> Eventcount.signal_after_insert ec

  (* {2 Per-domain insert buffering (DESIGN.md "Operation buffering")}

     With [params.buffer_len > 0] each handle stages inserts in a small
     sorted array and publishes the whole backlog into the tree as one bulk
     leaf insertion, amortizing the tree walk and the node trylock over
     [buf_target] elements (after Williams & Sanders' MultiQueue insertion
     buffers, arXiv:2504.11652, and the k-LSM's thread-local staging).
     Staged elements are counted in [q.buffered], not [q.size]: they become
     visible to other domains only at the flush, which widens the
     relaxation window to [batch + ndomains * buffer_len]. Three mechanisms
     keep elements from being stranded in a buffer: an extractor that
     drains the published structure flushes its own backlog ([Drain]) and
     raises [flush_demand] for everyone else's; every producer honors
     [flush_demand] at its next insert ([Demand]); and [unregister] always
     flushes. Blocking extractors reach the [Drain] flush through the plain
     [extract] they wrap, so they publish their own backlog before
     sleeping, and the flush signals the eventcount once per published
     element so a sleeping consumer is woken. *)

  type flush_reason =
    | Full  (** the buffer reached the adaptive fill threshold *)
    | Demand  (** a starved consumer raised [flush_demand] *)
    | Drain  (** the flushing handle itself drained the published queue *)
    | Unregister
    | Manual  (** an explicit [flush h] call *)
    | Reclaim  (** the scavenger publishing an orphaned handle's backlog *)

  let flush_counter q = function
    | Full -> q.mc.c_buf_flush_full
    | Demand -> q.mc.c_buf_flush_demand
    | Drain -> q.mc.c_buf_flush_drain
    | Unregister -> q.mc.c_buf_flush_unregister
    | Manual -> q.mc.c_buf_flush_manual
    | Reclaim -> q.mc.c_buf_flush_reclaim

  (* lint: holds lock *)
  let bulk_insert_all node buf n =
    for i = 0 to n - 1 do
      Set.insert node.set buf.(i)
    done;
    refresh node

  (* Bulk counterpart of [forced_insert_at]: the whole buffer joins a node
     with room to spare, in non-head positions. Validated against the
     buffer's max, so no buffered element can exceed the node's max. *)
  let bulk_forced_insert_at q node buf n =
    if not (acquire_policy q node.lock) then false
    else begin
      let ok =
        buf.(n - 1) <= Atomic.get node.max
        && Atomic.get node.count + n <= q.params.target_len
      in
      if ok then begin
        bulk_insert_all node buf n;
        tick q q.mc.c_forced;
        note q Trace.Forced_insert
      end;
      L.release node.lock;
      ok
    end

  (* Bulk counterpart of [regular_insert], positioned by the buffer's max
     [bmax]: every other buffered element is <= bmax, so landing them all
     in the node that accepts bmax as its new max cannot raise that max
     above the parent's — the mound invariant is checked once for the
     strongest element. No min-swap on the bulk path; an oversized result
     reuses the set-split machinery exactly as a single insertion would. *)
  let bulk_regular_insert h level slot buf n =
    let q = h.q in
    let bmax = buf.(n - 1) in
    let insert_and_split node =
      bulk_insert_all node buf n;
      if
        q.params.split
        && Set.size node.set > 2 * q.params.target_len
        && level < Atomic.get q.leaf_level
      then split_node q level slot node
      else L.release node.lock
    in
    if level = 0 then begin
      let root = protect_node h ~hpslot:0 0 0 in
      if not (acquire_policy q root.lock) then false
      else if Atomic.get root.max > bmax then begin
        L.release root.lock;
        false
      end
      else begin
        insert_and_split root;
        true
      end
    end
    else begin
      let parent = protect_node h ~hpslot:1 (level - 1) (slot / 2) in
      let node = protect_node h ~hpslot:0 level slot in
      if not (acquire_policy q parent.lock) then false
      else if not (acquire_policy q node.lock) then begin
        L.release parent.lock;
        false
      end
      else if bmax < Atomic.get node.max || bmax >= Atomic.get parent.max then begin
        L.release node.lock;
        L.release parent.lock;
        false
      end
      else begin
        L.release parent.lock;
        insert_and_split node;
        true
      end
    end

  let bulk_flush h reason =
    let q = h.q in
    let n = Plain.get h.buf_n in
    if n > 0 then begin
      let t0 = if q.obs_full then Zmsq_util.Timing.now_ns () else 0 in
      let bmax = h.buf.(n - 1) in
      (* Same publication discipline as a single insert: the elements are
         counted into [size] before they land (extractors spin rather than
         report a false empty) and leave [buffered] only afterwards. *)
      ignore (Atomic.fetch_and_add q.size n);
      let fails = ref 0 in
      let rec attempt () =
        let leaf, slot, force = select_position ~room:n h bmax in
        let ok =
          if force then bulk_forced_insert_at q (protect_node h ~hpslot:0 leaf slot) h.buf n
          else begin
            let ilevel, islot = search_position h leaf slot bmax in
            bulk_regular_insert h ilevel islot h.buf n
          end
        in
        if not ok then begin
          incr fails;
          tick q q.mc.c_retries;
          attempt ()
        end
      in
      attempt ();
      (* Contention hint for sticky shard routing: trylock failures during
         the flush, or a flush forced by consumer demand/drain (the shard
         is starved of extraction capacity), both argue for spreading. *)
      Plain.set h.contended
        (!fails > 0 || match reason with Demand | Drain -> true | _ -> false);
      Plain.set h.buf_n 0;
      ignore (Atomic.fetch_and_add q.buffered (-n));
      (* Adaptive fill threshold: node-trylock contention during the flush
         (the same events the obs registry counts as [insert_retries_total])
         doubles the threshold toward the [buffer_len] cap — bigger windows
         mean fewer, better-amortized flushes under contention. Uncontended
         flushes shrink it back, tightening the relaxation window; consumer
         demand halves it so a starved consumer is not starved again by the
         very next window. *)
      let cap = q.params.buffer_len in
      let minimum = max 1 (cap / 8) in
      let target = Plain.get h.buf_target in
      (match reason with
      | Demand | Drain -> Plain.set h.buf_target (max minimum (target / 2))
      | Full | Unregister | Manual | Reclaim ->
          if !fails > 0 then Plain.set h.buf_target (min cap (2 * target))
          else Plain.set h.buf_target (max minimum (target - 1)));
      (match reason with Demand -> Atomic.set q.flush_demand false | _ -> ());
      tick q (flush_counter q reason);
      (* [tr] is populated iff obs_full, when [t0] was measured: the span
         reuses that clock reading as its begin timestamp. *)
      (match q.tr with Some tr -> Trace.complete tr ~arg:n ~t0 Trace.Buf_flush | None -> ());
      if q.obs_full then
        Metrics.observe q.mh.h_flush (float_of_int (Zmsq_util.Timing.now_ns () - t0));
      match q.ec with
      | None -> ()
      | Some ec ->
          (* One bulk credit instead of n signal loops: a single FAA plus
             at most [slots] wakes, with every covered sleeper released
             (see Eventcount.signal_n). *)
          Eventcount.signal_n ec n
    end

  let buf_insert h e =
    let q = h.q in
    (* Sorted ascending insertion shift; the handle's best staged element
       stays at the top index for O(1) claims in [extract]. *)
    let n = Plain.get h.buf_n in
    let i = ref n in
    while !i > 0 && h.buf.(!i - 1) > e do
      h.buf.(!i) <- h.buf.(!i - 1);
      decr i
    done;
    h.buf.(!i) <- e;
    Plain.set h.buf_n (n + 1);
    Atomic.incr q.buffered;
    (* A consumer's flush demand is honored only *after* staging, so the
       element just inserted is covered by the very flush that answers the
       demand. The old order (check demand, then stage) published only the
       pre-existing backlog: a one-shot producer — demand raised, then a
       single insert, then silence — left its element staged invisibly and
       the consumer sleeping on the eventcount unboundedly. *)
    if Atomic.get q.flush_demand then bulk_flush h Demand
    else if n + 1 >= Plain.get h.buf_target then bulk_flush h Full

  let flush h =
    ensure_owner h "Zmsq.flush";
    if h.q.buffer_on && Plain.get h.buf_n > 0 then bulk_flush h Manual

  let insert_contended h = Plain.get h.contended

  let unregister h =
    (* Claim the handle for teardown: the CAS settles the race against a
       concurrent [orphan]+scavenger, so the buffer is flushed exactly
       once. Legal in any lifecycle state — staged elements were accepted
       before the queue closed and must still be published. *)
    let rec claim () =
      let s = Atomic.get h.owner in
      if s = own_live || s = own_orphaned then begin
        if not (Atomic.compare_and_set h.owner s own_unregistered) then claim ()
      end
      else if s = own_reclaimed then
        invalid_arg "Zmsq.unregister: handle was orphaned and reclaimed"
      else invalid_arg "Zmsq.unregister: handle already unregistered"
    in
    claim ();
    if h.q.buffer_on && Plain.get h.buf_n > 0 then bulk_flush h Unregister;
    Option.iter Hazard.unregister h.hp_thread;
    forget_handle h.q h

  (* Scavenge handles whose owner died without [unregister]: CAS-claim each
     [Orphaned] handle (losing cleanly to a concurrent owner resurrection
     or unregister), publish its staged backlog through the ordinary
     bulk-flush machinery, release its hazard record, and drop it from the
     registry — a crashed producer can neither strand elements nor exhaust
     [Hazard]'s max_threads. Returns the number of elements published.
     Callable from any thread; also piggybacked by [extract] when the tree
     looks empty while [buffered] says elements exist somewhere. *)
  let reclaim_orphans q =
    let candidates =
      with_handles_mu q (fun () ->
          List.filter (fun h -> Atomic.get h.owner = own_orphaned) (Plain.get q.handles))
    in
    let published = ref 0 in
    List.iter
      (fun h ->
        if Atomic.compare_and_set h.owner own_orphaned own_reclaimed then begin
          let t0 = if q.obs_full then Zmsq_util.Timing.now_ns () else 0 in
          let n = Plain.get h.buf_n in
          if q.buffer_on && n > 0 then bulk_flush h Reclaim;
          published := !published + n;
          Option.iter Hazard.unregister h.hp_thread;
          forget_handle q h;
          tick q q.mc.c_orphan_reclaims;
          (match q.tr with Some tr -> Trace.complete tr ~arg:n ~t0 Trace.Reclaim | None -> ());
          if q.obs_full then
            Metrics.observe q.mh.h_reclaim (float_of_int (Zmsq_util.Timing.now_ns () - t0))
        end)
      candidates;
    !published

  (* {2 QoS sampling (DESIGN.md: online relaxation-quality estimator)}

     At the [Full] level, 1 in [2^obs_sample_shift] operations (per handle,
     decided by the handle's own rng) feeds three estimators:

     - sampled inserts arm a sojourn probe — the matching extract records
       the element's insert-to-extract age in [sojourn_ns];
     - sampled extracts capture the staged witness ([best_staged]) before
       extracting and record the priority gap in [rank_gap_keys] plus a
       pool-scan rank lower bound in [rank_error_sampled];
     - the [staleness_ns] gauge reports the oldest armed probe's age.

     Unsampled operations pay one branch (insert) or one branch plus one
     atomic read of [probe_armed] (extract). *)

  let[@inline] qos_sampled q h = q.obs_full && Rng.bits h.rng land q.sample_mask = 0

  (* Arm a sojourn probe for [e]: write the timestamp, then publish the key
     with a CAS on a free slot. A concurrent armer racing the same slot can
     leave its own (nanoseconds-apart) timestamp under our key — harmless
     for telemetry. All slots busy drops the sample. *)
  let arm_probe q e =
    let now = Zmsq_util.Timing.now_ns () in
    let rec go i =
      if i < nprobes then
        if Elt.is_none (Atomic.get q.probe_key.(i)) then begin
          Atomic.set q.probe_ts.(i) now;
          if Atomic.compare_and_set q.probe_key.(i) Elt.none e then Atomic.incr q.probe_armed
          else go (i + 1)
        end
        else go (i + 1)
    in
    go 0

  (* Probe lookup on the extract side. Matching is by element value, so a
     duplicate of a probed element can resolve the probe early — the
     recorded sojourn is then a lower bound; acceptable for a sampled
     telemetry histogram. *)
  let check_probe q v =
    if Atomic.get q.probe_armed > 0 then
      for i = 0 to nprobes - 1 do
        if Atomic.get q.probe_key.(i) == v && Atomic.compare_and_set q.probe_key.(i) v Elt.none
        then begin
          Atomic.decr q.probe_armed;
          let age = Zmsq_util.Timing.now_ns () - Atomic.get q.probe_ts.(i) in
          Metrics.observe q.mh.h_sojourn (float_of_int (max age 0))
        end
      done

  (* Count the published elements provably stronger than the extracted key:
     still-claimable pool entries above it (the pool is ascending in
     [0, pool_next], so scan down from the strongest) plus the root's
     cached max. A cheap lower bound on the true rank error — it ignores
     deeper tree nodes and other handles' buffers — and by construction
     never exceeds [batch + 1], i.e. it always sits inside the
     [batch + ndomains * buffer_len] relaxation bound. *)
  let rank_proxy q v =
    let n = ref 0 in
    if Atomic.get (node_at q 0 0).max > v then incr n;
    if q.params.batch > 0 then begin
      let i = ref (min (Atomic.get q.pool_next) (Array.length q.pool - 1)) in
      let scanning = ref true in
      while !scanning && !i >= 0 do
        if Atomic.get q.pool.(!i) > v then begin
          incr n;
          decr i
        end
        else scanning := false
      done
    end;
    !n

  let qos_record q v witness =
    tick q q.mc.c_qos_samples;
    if witness > v then begin
      tick q q.mc.c_qos_relaxed;
      Metrics.observe q.mh.h_rank_gap (float_of_int (Elt.priority witness - Elt.priority v))
    end
    else Metrics.observe q.mh.h_rank_gap 0.0;
    Metrics.observe q.mh.h_rank_err (float_of_int (rank_proxy q v))

  let insert h e =
    if Elt.is_none e then invalid_arg "Zmsq.insert: none";
    ensure_owner h "Zmsq.insert";
    let q = h.q in
    if Atomic.get q.state <> st_open then raise Queue_closed;
    (* One sampling draw decides all per-op telemetry — the sojourn probe,
       the latency histogram, the trace span and the insert's
       [forced_insert]/[min_swap] instants — so the unsampled Full
       path costs a single rng advance over Counters (the batch-level
       spans: refill/flush/drain/reclaim stay exhaustive). Set
       obs_sample_shift to 0 for per-op-complete histograms and traces. *)
    let sampled = qos_sampled q h in
    if sampled then arm_probe q e;
    if q.buffer_on then buf_insert h e
    else if not sampled then insert_aux ~traced:false h e
    else begin
      let t0 = Zmsq_util.Timing.now_ns () in
      insert_aux ~traced:true h e;
      let dur = Zmsq_util.Timing.now_ns () - t0 in
      Metrics.observe q.mh.h_insert (float_of_int dur);
      match q.tr with Some tr -> Trace.complete tr ~dur ~t0 Trace.Insert | None -> ()
    end

  (* {2 Extraction (Listing 2)} *)

  let extract_from_pool q =
    if q.params.batch = 0 || Atomic.get q.pool_next < 0 then Elt.none
    else begin
      let idx = Atomic.fetch_and_add q.pool_next (-1) in
      if idx >= 0 then
        (* Slots are written before pool_next is published, so the value is
           there; the exchange marks it consumed for the refiller's
           lagging-consumer wait. *)
        Atomic.exchange q.pool.(idx) Elt.none
      else Elt.none
    end

  (* Mound-style invariant repair from [(level, slot)] downward; the node's
     lock is held and released here. *)
  let rec swap_down q level slot node =
    if level >= Atomic.get q.leaf_level then L.release node.lock
    else begin
      let left = node_at q (level + 1) (2 * slot) in
      let right = node_at q (level + 1) ((2 * slot) + 1) in
      L.acquire left.lock;
      L.acquire right.lock;
      let my = Atomic.get node.max in
      let lmax = Atomic.get left.max and rmax = Atomic.get right.max in
      if my >= lmax && my >= rmax then begin
        L.release right.lock;
        L.release left.lock;
        L.release node.lock
      end
      else begin
        let child, child_slot, other, cmax =
          if lmax >= rmax then (left, 2 * slot, right, lmax)
          else (right, (2 * slot) + 1, left, rmax)
        in
        L.release other.lock;
        Set.swap_contents node.set child.set;
        (* The caches travel with the contents instead of rescanning both
           sets: both locks are held and both caches are exact. *)
        let nmin = Atomic.get node.min and ncount = Atomic.get node.count in
        Atomic.set node.max cmax;
        Atomic.set node.min (Atomic.get child.min);
        Atomic.set node.count (Atomic.get child.count);
        Atomic.set child.max my;
        Atomic.set child.min nmin;
        Atomic.set child.count ncount;
        tick q q.mc.c_swap_downs;
        L.release node.lock;
        swap_down q (level + 1) child_slot child
      end
    end

  (* Refill the pool from the root (batch > 0) or do a strict extraction
     (batch = 0). Returns the element reserved for the caller, or [none]
     when the root was contended / already refilled / empty. *)
  let extract_pool h =
    let q = h.q in
    let root = protect_node h ~hpslot:0 0 0 in
    if not (L.try_acquire root.lock) then Elt.none
    else if q.params.batch > 0 && Atomic.get q.pool_next >= 0 then begin
      L.release root.lock;
      Elt.none
    end
    else if Set.is_empty root.set then begin
      L.release root.lock;
      Elt.none
    end
    else begin
      let t0 = if q.obs_full then Zmsq_util.Timing.now_ns () else 0 in
      (* Wait for lagging consumers holding indexes into the old pool. *)
      for i = 0 to Plain.get q.pool_fill - 1 do
        while not (Elt.is_none (Atomic.get q.pool.(i))) do
          P.cpu_relax () (* lint: allow unbounded-spin a claimed pool slot is read within a few steps *)
        done
      done;
      let count = Set.size root.set in
      let n = if q.params.batch = 0 then 0 else min q.params.batch (count - 1) in
      let top = Set.take_top root.set (n + 1) in
      let reserved = top.(0) in
      for i = 0 to n - 1 do
        (* pool.(i) ascending: the highest index is claimed first. *)
        Atomic.set q.pool.(i) top.(n - i)
      done;
      Plain.set q.pool_fill n;
      refresh root;
      tick q q.mc.c_refills;
      if n > 0 then Atomic.set q.pool_next (n - 1);
      swap_down q 0 0 root;
      if q.obs_full then begin
        Metrics.observe q.mh.h_refill (float_of_int (Zmsq_util.Timing.now_ns () - t0));
        match q.tr with Some tr -> Trace.complete tr ~arg:n ~t0 Trace.Refill | None -> ()
      end;
      reserved
    end

  (* The best element an extraction could currently be handed without
     touching our buffer: the stronger of the pool's next claim (while the
     pool is live) and the root's cached max. A buffered element may be
     claimed locally only when it beats this — i.e. when it beats every
     published element — which keeps the relaxation bound intact. (The
     tempting weaker rule, "beats the pool's weakest staged element",
     admits unbounded claim chains: each fresh insert is claimed straight
     back while the pool never drains, so the true max can starve
     arbitrarily long. Beating everything published bounds the gap: a
     claim is then outranked only by other domains' buffers, which hold at
     most [(ndomains - 1) * buffer_len] elements.) With [batch = 0] this
     degenerates to "beats the root's max", which keeps single-handle
     strict mode exact. *)
  let best_staged q =
    let root_max = Atomic.get (node_at q 0 0).max in
    let next = Atomic.get q.pool_next in
    if q.params.batch > 0 && next >= 0 && next < Array.length q.pool then begin
      let pool_best = Atomic.get q.pool.(next) in
      if pool_best > root_max then pool_best else root_max
    end
    else root_max

  let try_buf_claim h =
    let n = Plain.get h.buf_n in
    if n = 0 then Elt.none
    else begin
      let head = h.buf.(n - 1) in
      if head > best_staged h.q then begin
        Plain.set h.buf_n (n - 1);
        Atomic.decr h.q.buffered;
        tick h.q h.q.mc.c_buf_claims;
        head
      end
      else Elt.none
    end

  let extract_aux h =
    let q = h.q in
    (* Reporting empty must be *conclusive*, not just consistent with the
       reads made so far: a blocking extractor that receives [none] burns
       the eventcount ticket it took for this attempt. Re-reading [size]
       after the [buffered] decision catches an element published in
       between: still zero means every element accepted before this call
       is either extracted or staged in a buffer whose flush will signal
       later. *)
    let conclusively_empty () = Atomic.get q.size = 0 in
    let rec loop () =
      let v = extract_from_pool q in
      if not (Elt.is_none v) then finish v
      else begin
        let v = extract_pool h in
        if not (Elt.is_none v) then finish v
        else if Atomic.get q.size = 0 then
          if q.buffer_on && Plain.get h.buf_n > 0 then begin
            (* The published structure is drained but our own backlog is
               not: publish it and retry, so extract still succeeds on a
               queue this handle knows to be nonempty. *)
            bulk_flush h Drain;
            loop ()
          end
          else if q.buffer_on && Atomic.get q.buffered > 0 then begin
            (* Elements are staged in other domains' buffers, out of our
               reach. If any of those handles is orphaned — its producer
               crashed without unregistering — scavenge it right here and
               retry: the piggybacked reclaim is what keeps a dead
               producer's backlog from being stranded forever. Otherwise
               demand a flush from the live producers (honored at their
               next operation and signalled through the eventcount) and
               report empty — emptiness is exact w.r.t. published
               elements. *)
            if reclaim_orphans q > 0 then loop ()
            else begin
              Atomic.set q.flush_demand true;
              if conclusively_empty () then Elt.none else loop ()
            end
          end
          else begin
            (* Exactly empty (nothing published, nothing staged): if a
               drain is in progress this very observation completes it. *)
            if Atomic.get q.state = st_draining then ignore (try_finish_drain q);
            if conclusively_empty () then Elt.none else loop ()
          end
        else begin
          P.cpu_relax (); (* lint: allow unbounded-spin size counts an insert that is about to publish *)
          loop ()
        end
      end
    and finish v =
      Atomic.decr q.size;
      v
    in
    if q.buffer_on then begin
      let v = try_buf_claim h in
      if not (Elt.is_none v) then v else loop ()
    end
    else loop ()

  let extract h =
    ensure_owner h "Zmsq.extract";
    let q = h.q in
    if not q.obs_full then extract_aux h
    else if Rng.bits h.rng land q.sample_mask <> 0 then begin
      (* Unsampled Full extract: probe resolution only (one gated atomic
         read) — no clock, histogram or span cost. *)
      let v = extract_aux h in
      if not (Elt.is_none v) then check_probe q v;
      v
    end
    else begin
      (* The witness must be read *before* the extraction: it bounds what a
         perfectly strict extract could have returned at entry. *)
      let witness = best_staged q in
      let t0 = Zmsq_util.Timing.now_ns () in
      let v = extract_aux h in
      let dur = Zmsq_util.Timing.now_ns () - t0 in
      Metrics.observe q.mh.h_extract (float_of_int dur);
      (match q.tr with Some tr -> Trace.complete tr ~dur ~t0 Trace.Extract | None -> ());
      if not (Elt.is_none v) then begin
        check_probe q v;
        qos_record q v witness
      end;
      v
    end

  let extract_timeout h ~timeout_ns =
    match h.q.ec with
    | None -> invalid_arg "Zmsq.extract_timeout: queue created without blocking"
    | Some ec ->
        (* Clamp once at the API boundary: a negative budget degrades to a
           try-pop, and [now + timeout_ns] saturates at [max_int] instead
           of wrapping negative — a caller mapping an RPC deadline of
           [max_int] (= "no deadline") must get a long wait, not an
           accidental non-blocking poll. Individual wait slices are capped
           so the remaining budget never overflows the primitive layer's
           own [now + timeout] arithmetic. *)
        let timeout_ns = if timeout_ns < 0 then 0 else timeout_ns in
        let now0 = Zmsq_util.Timing.now_ns () in
        let deadline =
          if timeout_ns > max_int - now0 then max_int else now0 + timeout_ns
        in
        let max_slice_ns = 3_600_000_000_000 (* 1h *) in
        (* Both deadline exits make one final non-blocking attempt rather
           than returning [none] outright: an element that arrived in the
           last wait window is still claimable — the timed-out waiter's
           ticket was re-credited by the eventcount's compensating signal,
           so claiming it cannot skew the sleep/wake pairing — and a
           zero/negative budget degrades to a plain try-pop instead of an
           unconditional miss on a nonempty queue. A closed queue takes the
           same final-attempt exit immediately: without it, the poisoned
           eventcount would turn the wait into a spin until the deadline.
           [none] before the deadline therefore means closed-and-empty
           (confirm with {!lifecycle}); at the deadline it means timeout. *)
        let rec loop () =
          let remaining = deadline - Zmsq_util.Timing.now_ns () in
          if remaining <= 0 then extract h
          else if extraction_closed h.q then extract h
          else begin
            let slice = if remaining > max_slice_ns then max_slice_ns else remaining in
            note h.q Trace.Sleep;
            let woke = Eventcount.wait_before_extract_for ec ~timeout_ns:slice in
            note h.q Trace.Wake;
            if woke then begin
              let v = extract h in
              if Elt.is_none v then loop () else v
            end
            else if slice < remaining then loop ()
            else extract h
          end
        in
        loop ()

  let is_empty q = Atomic.get q.size = 0

  (* Best element currently *published*: the larger of the pool's next
     claim and the root's cached max. An estimate — concurrent operations
     may move it — but never smaller than what a subsequent extract from a
     quiescent queue returns. Both legs matter: the pool claim covers the
     staged batch the root no longer sees, and the root max covers
     elements inserted after the refill, which a live pool would otherwise
     hide until it drains (readers like [Zmsq_shard]'s cached-maximum
     refresh would then systematically understate the queue). *)
  let peek q =
    let next = Atomic.get q.pool_next in
    let from_pool =
      if q.params.batch > 0 && next >= 0 && next < Array.length q.pool then
        Atomic.get q.pool.(next)
      else Elt.none
    in
    let root = Atomic.get (node_at q 0 0).max in
    if Elt.is_none from_pool then root
    else if Elt.is_none root then from_pool
    else if Elt.priority root > Elt.priority from_pool then root
    else from_pool

  let extract_blocking h =
    match h.q.ec with
    | None -> invalid_arg "Zmsq.extract_blocking: queue created without blocking"
    | Some ec ->
        let q = h.q in
        let rec loop () =
          if extraction_closed q then
            (* Closed — directly, or by a drain this very call completed:
               one final non-blocking attempt claims any element still
               published. [none] here is the distinguishable
               closed-and-empty outcome, the only way this function
               returns [none]. *)
            extract h
          else begin
            note q Trace.Sleep;
            Eventcount.wait_before_extract ec;
            note q Trace.Wake;
            let v = extract h in
            if Elt.is_none v then loop () else v
          end
        in
        loop ()

  (* {2 Debug} *)

  module Debug = struct
    let leaf_level q = Atomic.get q.leaf_level

    let fold_nodes q f init =
      let acc = ref init in
      for level = 0 to Atomic.get q.leaf_level do
        let nodes = Atomic.get q.levels.(level) in
        for slot = 0 to Array.length nodes - 1 do
          acc := f !acc level slot nodes.(slot)
        done
      done;
      !acc

    let pool_level q =
      let n = Atomic.get q.pool_next in
      if q.params.batch = 0 || n < 0 then 0 else n + 1

    let buffered q = Atomic.get q.buffered
    let live_handles q = with_handles_mu q (fun () -> List.length (Plain.get q.handles))

    let fold_pool q f init =
      let acc = ref init in
      for i = 0 to Plain.get q.pool_fill - 1 do
        let v = Atomic.get q.pool.(i) in
        if not (Elt.is_none v) then acc := f !acc v
      done;
      !acc

    (* lint: quiescent *)
    let fold_elements q f init =
      fold_nodes q (fun acc _ _ n -> Set.fold f acc n.set) (fold_pool q f init)

    (* lint: quiescent *)
    let elements q = fold_elements q (fun acc e -> e :: acc) []

    (* lint: quiescent *)
    let node_counts q =
      List.rev (fold_nodes q (fun acc _ _ n -> Set.size n.set :: acc) []) |> Array.of_list

    (* lint: quiescent *)
    let check_invariant q =
      let caches_ok =
        fold_nodes q
          (fun ok _ _ n ->
            ok
            && Atomic.get n.max = Set.max_elt n.set
            && Atomic.get n.min = Set.min_elt n.set
            && Atomic.get n.count = Set.size n.set)
          true
      in
      let heap_ok =
        fold_nodes q
          (fun ok level slot n ->
            ok
            &&
            if level = 0 then true
            else Atomic.get (node_at q (level - 1) (slot / 2)).max >= Atomic.get n.max)
          true
      in
      let pool_ok =
        let next = Atomic.get q.pool_next in
        if q.params.batch = 0 then next < 0
        else begin
          let ok = ref (next < Plain.get q.pool_fill) in
          for i = 0 to min next (Array.length q.pool - 1) do
            if Elt.is_none (Atomic.get q.pool.(i)) then ok := false
          done;
          (* Claimable slots ascend: the next claim is the current best. *)
          for i = 1 to min next (Array.length q.pool - 1) do
            if Atomic.get q.pool.(i) < Atomic.get q.pool.(i - 1) then ok := false
          done;
          !ok
        end
      in
      let size_ok =
        fold_nodes q (fun acc _ _ n -> acc + Set.size n.set) (fold_pool q (fun acc _ -> acc + 1) 0)
        = Atomic.get q.size
      in
      caches_ok && heap_ok && pool_ok && size_ok

    (* Merged view of the sharded counters; identical to the per-name
       totals a [Metrics.snapshot] of [metrics q] reports. *)
    let counters q =
      {
        refills = Metrics.value q.mc.c_refills;
        splits = Metrics.value q.mc.c_splits;
        forced_inserts = Metrics.value q.mc.c_forced;
        min_swaps = Metrics.value q.mc.c_min_swaps;
        insert_retries = Metrics.value q.mc.c_retries;
        expands = Metrics.value q.mc.c_expands;
        swap_downs = Metrics.value q.mc.c_swap_downs;
        buf_flushes =
          Metrics.value q.mc.c_buf_flush_full
          + Metrics.value q.mc.c_buf_flush_demand
          + Metrics.value q.mc.c_buf_flush_drain
          + Metrics.value q.mc.c_buf_flush_unregister
          + Metrics.value q.mc.c_buf_flush_manual
          + Metrics.value q.mc.c_buf_flush_reclaim;
        buf_claims = Metrics.value q.mc.c_buf_claims;
        orphan_reclaims = Metrics.value q.mc.c_orphan_reclaims;
      }

    let eventcount_stats q =
      Option.map (fun ec -> (Eventcount.sleeps ec, Eventcount.wakes ec)) q.ec

    let hazard_domain_stats q =
      Option.map
        (fun hp -> (Hazard.retired_count hp, Hazard.recycled_count hp, Hazard.scan_count hp))
        q.hp
  end
end

module Make (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) : S_FAMILY =
  Make_prim (Zmsq_prim.Native) (L) (Set)

module Default = Make (Zmsq_sync.Lock.Tatas) (Array_set)
module Tas_q = Make (Zmsq_sync.Lock.Tas) (List_set)
module Mutex_q = Make (Zmsq_sync.Lock.Mutex_lock) (List_set)

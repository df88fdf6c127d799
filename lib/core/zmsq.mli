(** ZMSQ — the paper's relaxed concurrent priority queue (Section 3).

    The structure is a binary tree of TNodes (each holding a small set of
    elements plus cached atomic [min]/[max]/[count]) with the mound
    invariant [parent.max >= child.max], improved by three insertion
    techniques that keep every set near [target_len] elements of similar
    priority, and by a shared pool of up to [batch] high-priority elements
    that amortizes root contention in [extract].

    Guarantees (Section 3.7):
    - [extract] returns {!Zmsq_pq.Elt.none} only when the queue is truly
      empty at that instant ([exact_emptiness = true]);
    - with [batch = b] and [buffer_len = 0], the true maximum is returned
      at least once in any [b + 1] consecutive extractions, and
      [k * (b + 1)] consecutive extractions return a superset of the top
      [k] elements — independent of the thread count;
    - with per-domain insert buffering on ([buffer_len = l], an extension
      after Williams & Sanders' MultiQueue insertion buffers), up to [l]
      elements per registered handle may additionally be staged outside
      the shared structure, widening the window to
      [b + ndomains * l] — the true maximum among {e published} elements
      still returns within [b + 1] extractions, and a staged maximum is
      published no later than the owning handle's [buffer_len]-th
      subsequent insert, its next drained extract, or its [unregister];
      the buffer is the only staging path (DESIGN.md Section 11);
    - [batch = 0] (with [buffer_len = 0]) degrades to a strict (exact)
      priority queue; [batch = 0] with buffering remains exact for a
      single handle (the local claim rule only fires when the staged head
      beats everything published);
    - consumers may block on an empty queue ({!S.extract_blocking}) via the
      futex-style eventcount of Section 3.6;
    - optimistic node reads publish hazard pointers only when
      [params.hazards] is set. The GC keeps every node alive, so the
      default skips them; the figure instances turn them on to measure
      the paper's ZMSQ vs ZMSQ(leak) gap.

    The functor is parameterized by the per-node lock (Section 4.1 compares
    mutex/TAS/TATAS) and the per-node set representation (sorted list vs
    unsorted array — the "(array)" curves). {!Default} uses the array
    set; the list set is the differential reference and the figures'
    "zmsq" column. *)

(** Re-exports: the library's entry module is [Zmsq], so sibling modules
    are reached as [Zmsq.Params] etc. *)

module Params = Params
module Set_intf = Set_intf
module List_set = List_set
module Array_set = Array_set

(** Low-frequency event counters exposed for benchmarks and tests. *)
type counters = {
  refills : int;  (** extractPool calls that touched the root *)
  splits : int;  (** oversized sets split toward children *)
  forced_inserts : int;  (** non-max leaf insertions (Section 3.2) *)
  min_swaps : int;  (** parent-min swap optimizations (Section 3.2) *)
  insert_retries : int;  (** optimistic insertion restarts *)
  expands : int;  (** tree level expansions *)
  swap_downs : int;  (** set exchanges during invariant repair *)
  buf_flushes : int;  (** per-domain insert buffers published into the tree *)
  buf_claims : int;  (** extractions served from the caller's own buffer *)
  orphan_reclaims : int;  (** orphaned handles scavenged by {!S.reclaim_orphans} *)
}

type lifecycle =
  | Open  (** accepting inserts and extracts (the initial state) *)
  | Draining
      (** inserts are rejected; extraction stays live until the queue is
          exactly empty, at which point the state advances to {!Closed} *)
  | Closed
      (** inserts are rejected and the eventcount is poisoned: blocked
          extractors return the closed-and-empty outcome instead of
          sleeping. Remaining published elements are still claimable by
          non-blocking [extract]. *)

type handle_state =
  | Live  (** the normal single-owner state *)
  | Orphaned
      (** the owner was declared dead ({!S.orphan}); the handle's staged
          buffer and hazard record are claimable by {!S.reclaim_orphans},
          and resurrected transparently if the owner operates again first *)
  | Reclaimed  (** the scavenger claimed the handle; all further use raises *)
  | Unregistered  (** the owner released the handle via [unregister] *)

exception Queue_closed
(** Raised by [insert] once the queue has left the {!Open} state. The
    failing element was {e not} accepted: it is neither staged nor
    published, so shutdown never half-admits an element. *)

module type S = sig
  type t
  type handle

  val create : ?params:Params.t -> unit -> t
  (** Defaults to {!Params.default}. *)

  val params : t -> Params.t

  include Zmsq_pq.Intf.CONC with type t := t and type handle := handle

  val extract_blocking : handle -> Zmsq_pq.Elt.t
  (** Like [extract], but sleeps on the eventcount while the queue is
      empty. Returns {!Zmsq_pq.Elt.none} {e only} when the queue is closed
      and empty (directly via [close], or because a [close ~drain:true]
      drain completed — possibly finished by this very call); on an open
      queue it never returns [none]. Requires the queue to have been
      created with [params.blocking = true] (raises [Invalid_argument]
      otherwise). *)

  val extract_timeout : handle -> timeout_ns:int -> Zmsq_pq.Elt.t
  (** Deadline-bounded {!extract_blocking}: waits at most [timeout_ns]
      nanoseconds for an element, returning {!Zmsq_pq.Elt.none} on
      timeout. The deadline path always makes one final non-blocking
      [extract] attempt before reporting empty, so an element that arrived
      in the last wait window is claimed rather than missed, and a
      zero/negative budget behaves as a plain try-pop. Budgets are
      clamped at this boundary: [now + timeout_ns] saturates at
      [max_int] rather than wrapping, so [~timeout_ns:max_int] means
      "wait indefinitely", never an accidental poll. A closed-and-empty
      queue returns [none] immediately instead of burning the deadline
      (disambiguate from a timeout with {!lifecycle}). Same
      [params.blocking] requirement. Mirrors the timed pops production
      queues expose (e.g. Folly's
      [RelaxedConcurrentPriorityQueue::try_pop_until]). *)

  val flush : handle -> unit
  (** Publish the handle's staged inserts into the tree immediately
      (no-op when the buffer is empty or [params.buffer_len = 0]). Useful
      before a quiescent inspection and for tests; normal code never needs
      it — the flush policy (see {!Params.t.buffer_len} and DESIGN.md)
      publishes automatically. Remains legal after [close]:
      staged elements were accepted before the close and must still be
      publishable. *)

  val insert_contended : handle -> bool
  (** Whether this handle's most recent tree publication (a direct insert
      or a buffer flush) hit node-trylock contention, or was a flush forced
      by consumer demand/drain. A handle-private hint — {!Shard} uses it to
      re-roll sticky routing away from a contended or consumer-starved
      shard. *)

  val close : ?drain:bool -> t -> unit
  (** Atomically end the queue's life ([drain] defaults to [false]).
      [close q] moves {!Open} (or {!Draining}) to {!Closed}: subsequent
      [insert]s raise {!Queue_closed}, every extractor blocked in
      {!extract_blocking}/{!extract_timeout} is woken through the
      eventcount broadcast, and future blocking extracts return without
      sleeping. [close ~drain:true q] moves {!Open} to {!Draining}
      instead: inserts are rejected but extraction stays live until the
      queue is exactly empty (published and staged), when the state
      advances to {!Closed} — the completing extractor performs the
      broadcast. Idempotent, callable from any thread; a plain [close]
      escalates an in-progress drain. Note a drain only completes once
      every handle with staged elements has flushed, unregistered or been
      reclaimed — a live producer's staged backlog belongs to its owner. *)

  val lifecycle : t -> lifecycle

  val orphan : handle -> unit
  (** Declare the handle's owning thread dead, making the handle's staged
      buffer (and hazard record, with [params.hazards]) claimable by
      {!reclaim_orphans}. Callable
      from any thread — it is the one handle operation that deliberately
      breaks the single-owner rule — but only meaningful for an owner that
      is no longer executing queue operations (crashed, or parked for
      good); orphaning a handle whose owner is mid-operation is a race on
      the staged buffer. An owner that was wrongly presumed dead and
      operates again is resurrected transparently: its next operation CAS
      races the scavenger and exactly one side wins (the loser of that
      race — the owner — gets [Invalid_argument]). No-op unless the
      handle is {!Live}. *)

  val handle_state : handle -> handle_state

  val reclaim_orphans : t -> int
  (** Scavenge every {!Orphaned} handle: CAS-claim it (losing cleanly to a
      concurrent owner resurrection or [unregister]), bulk-flush its
      staged backlog into the tree, release its hazard record (if any) and
      forget it — so a crashed producer can neither strand elements nor,
      with [params.hazards], exhaust the hazard domain's [max_threads]. Returns the number of elements
      published. Callable from any thread at any lifecycle state; also
      piggybacked automatically by [extract] when the published structure
      is empty while [buffered > 0]. *)

  val is_empty : t -> bool
  (** Exact at any instant (the global element count is zero). *)

  val peek : t -> Zmsq_pq.Elt.t
  (** The best currently published element (the larger of the next pool
      claim and the root's cached maximum) without removing it;
      {!Zmsq_pq.Elt.none} when empty. An O(1) estimate: concurrent
      operations may change it before an extract. *)

  val metrics : t -> Zmsq_obs.Metrics.t
  (** The queue's private metrics registry: sharded event counters
      (always, unless [params.obs = Off]), operation-latency histograms
      and the size/leaf_level/pool_level gauges (populated when
      [params.obs = Full]). Snapshot it at any time — see
      OBSERVABILITY.md for the metric names. *)

  val trace : t -> Zmsq_obs.Trace.t option
  (** The per-domain trace-event ring, present iff [params.obs = Full]. *)

  (** Introspection for tests, the accuracy harness and the set-quality
      experiments. Quiescent-only unless noted. *)
  module Debug : sig
    val check_invariant : t -> bool
    (** Parent/child max ordering, cache coherence with the underlying
        sets, pool consistency, size accounting. *)

    val leaf_level : t -> int

    val node_counts : t -> int array
    (** Set size of every populated node, breadth-first from the root —
        the statistic behind the paper's set-stability claim. *)

    val elements : t -> Zmsq_pq.Elt.t list
    (** Every element currently in the queue (tree + pool), unordered. *)

    val fold_elements : t -> ('a -> Zmsq_pq.Elt.t -> 'a) -> 'a -> 'a
    (** Fold over {!elements} without building the list. *)

    val pool_level : t -> int
    (** Elements currently claimable from the pool (0 if empty). *)

    val buffered : t -> int
    (** Elements currently staged in per-domain insert buffers (excluded
        from [length] and {!elements} until flushed; 0 when
        [params.buffer_len = 0]). *)

    val live_handles : t -> int
    (** Handles currently in the registry (registered, not yet
        unregistered or reclaimed). *)

    val counters : t -> counters

    val eventcount_stats : t -> (int * int) option
    (** (sleeps, wakes) of the eventcount when [params.blocking]. *)

    val hazard_domain_stats : t -> (int * int * int) option
    (** (retired, recycled, scans) when [params.hazards] is set; [None]
        otherwise, as with {!Params.default}. *)
  end
end

(** The single-queue API plus queue {e families}: sets of queues sharing
    one eventcount, so a consumer of the whole set can take one combined
    wait ({!S_FAMILY.family_wait}) instead of parking on one member at a
    time. Only the plain functors expose this — a sharded queue is itself
    built {e from} a family ({!Shard}'s combined blocking wait) and cannot
    share its eventcount outward again. *)
module type S_FAMILY = sig
  include S

  val create_family : params_of:(int -> Params.t) -> int -> t array
  (** [create_family ~params_of n] builds [n] independent queues sharing
      one eventcount: every member's insert, bulk flush and close
      signals through it. All members must agree on
      [Params.blocking]. *)

  val family_wait : t -> unit
  (** Block until any member of this queue's family publishes an element
      or closes (returns immediately once the shared eventcount is
      poisoned). The wake carries no affinity — the caller must re-poll
      every member. Raises [Invalid_argument] when not blocking. *)

  val family_wait_for : t -> timeout_ns:int -> bool
  (** Like {!family_wait} with a deadline; [false] means timed out. *)
end

module Make_prim (P : Zmsq_prim.Intf.PRIM) (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) :
  S_FAMILY
(** The fully general form: every atomic access, mutex operation, futex
    wait and [cpu_relax] goes through [P]. [zmsq_check] instantiates this
    with schedulable primitives to model-check the queue; production code
    should use {!Make}. *)

module Make (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) : S_FAMILY
(** [Make_prim] applied to the native primitives ({!Zmsq_prim.Native}). *)

module Default : S
(** TATAS trylocks + unsorted-array sets — the paper's "(array)"
    configuration, which leads its Figures 5 and 7. (The paper's own
    default, TATAS + sorted lists, is [Make (Zmsq_sync.Lock.Tatas)
    (List_set)].) *)

module Tas_q : S
(** TAS trylocks + list sets (Figure 2, which compares locks on the list
    set). *)

module Mutex_q : S
(** OS mutex + list sets (Figure 2's std::mutex baseline). *)

(** The single-queue API plus shard introspection — what {!Shard}'s
    functors provide. *)
module type SHARDED = sig
  include S

  val shard_count : t -> int

  val shard_sizes : t -> int array
  (** Per-shard element counts (same caveats as [length]). *)

  val shard_metrics : t -> Zmsq_obs.Metrics.t array
  (** Each inner queue's private metrics registry, in shard order (the
      outer registry from [metrics] carries only the routing counters). *)
end

(** Sharded ZMSQ-of-ZMSQs (ROADMAP item 1, after the Engineering
    MultiQueues line): [params.shards] independent ZMSQ instances behind
    the single-queue API, with sticky insert routing
    ([params.stickiness] consecutive inserts per chosen shard, re-rolling
    on contention or consumer-demand flushes), power-of-two-choices
    extraction over padded per-shard cached maxima (with a full-sweep
    fallback, so [extract] returns none only after visiting every shard),
    and a fan-out Open → Draining → Closed lifecycle (a drain completes
    only when every shard is exactly empty; orphan reclamation sweeps all
    shards). Relaxation widens to
    [shards * (batch + ndomains * buffer_len)] plus a two-choice selection
    slack — see [Zmsq_harness.Accuracy.sharded_bound]. With [shards = 1]
    every operation delegates directly to the single inner queue
    (bit-for-bit the plain implementation, checked by the property
    suite).

    Blocking extraction takes one {e combined} wait over the whole shard
    set: the inner queues share a single eventcount
    ({!S_FAMILY.create_family}), the waiter's ticket is taken after the
    two-choice sweep comes back empty, and every shard's insert, flush
    and close signals through the shared counter — so an idle
    extractor neither spins across shards nor sleeps through a wake on a
    shard it is not parked on.

    Emptiness contract once [shards > 1] ([exact_emptiness = false]): a
    sweep visits shards one at a time, so a [none] from [extract] is not
    a single-instant witness — it means every shard was observed exactly
    empty at {e some} point during the call. What is guaranteed: each
    inner extract never returns [none] while its own shard holds
    published or staged elements, and the outer [extract]
    re-checks the per-shard sizes (refreshing every cached maximum) and
    runs one more full round before reporting empty — so the drain path,
    which re-polls until every shard closes, can never conclude empty
    while elements are staged anywhere. *)
module Shard : sig
  module type SHARDED = SHARDED

  module Make_prim (P : Zmsq_prim.Intf.PRIM) (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) :
    SHARDED

  module Make (L : Zmsq_sync.Lock.S) (Set : Set_intf.SET) : SHARDED

  module Default : SHARDED
  (** TATAS trylocks + unsorted-array sets, like the plain {!Default}. *)
end

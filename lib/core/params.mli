(** Tuning parameters for ZMSQ (Sections 3.1, 4.2 of the paper).

    [batch] bounds how many elements beyond the maximum one call to
    extractPool may stage in the shared pool: relaxation accuracy depends
    only on it (the true maximum returns at least once every [batch]+1
    extractions). [batch = 0] makes ZMSQ a strict priority queue.

    [target_len] is the number of elements each tree node tries to hold; a
    set may grow to at most [2 * target_len] before it is split. *)

type lock_policy =
  | Trylock  (** fail fast and restart the operation (the paper's winner) *)
  | Blocking  (** spin/block on the node lock *)

type t = {
  batch : int;
  target_len : int;
  lock_policy : lock_policy;
  blocking : bool;  (** enable the futex eventcount of Section 3.6 *)
  hazards : bool;
      (** publish a hazard pointer on every optimistic node read, as a
          non-GC runtime must (Section 3.5). Tree nodes are never freed
          here, so the hazards protect nothing; they exist so the paper's
          ZMSQ vs ZMSQ(leak) comparison (Figs. 5, 7, 8) can be measured.
          Off by default; the figure instances turn it on. *)
  forced_insert : bool;  (** ablation: non-head leaf insertion (Section 3.2) *)
  min_swap : bool;  (** ablation: parent-min swap optimization (Section 3.2) *)
  split : bool;  (** ablation: split oversized sets *)
  initial_levels : int;  (** tree levels allocated up front *)
  forced_min_level : int;
      (** forced insert / min-swap are forbidden above this level; the paper
          excludes the top three levels, i.e. 3. *)
  buffer_len : int;
      (** extension (after Williams & Sanders' MultiQueue insertion buffers):
          capacity of the per-handle local insert buffer. Inserts are staged
          locally and published into the tree as one bulk leaf insertion when
          the buffer fills (or earlier — see the flush policy in DESIGN.md).
          An adaptive policy grows the effective fill threshold up to
          [buffer_len] under node-trylock contention and shrinks it when
          contention subsides; a consumer that finds the shared structure
          empty while elements remain buffered raises a flush demand that
          producers honor on their next operation, and blocking extractors
          flush their own buffer before sleeping, so elements are never
          stranded. Widens the relaxation window from [batch] to
          [batch + ndomains * buffer_len]. [0] (the default) disables
          buffering entirely and is bit-for-bit the unbuffered
          implementation. Must be [<= target_len] so a flush fits in one
          leaf set without immediately violating the split bound. This is
          the only staging path in front of the tree (DESIGN.md Section
          11). *)
  shards : int;
      (** extension (after the Engineering MultiQueues line): number of
          independent ZMSQ instances composed by {!Zmsq.Shard}. The plain
          single-queue functors ignore this field; [Zmsq.Shard] requires it
          to be [>= 1] and with [1] delegates every operation directly to
          one inner queue (bit-for-bit the single-queue behaviour). Widens
          the relaxation window to
          [shards * (batch + ndomains * buffer_len)] plus a two-choice
          selection slack — see {!Zmsq_harness.Accuracy.sharded_bound}. *)
  stickiness : int;
      (** how many consecutive inserts a handle directs at its chosen shard
          before re-rolling ([k] in the MultiQueue papers). A re-roll also
          happens early when the chosen shard's trylock is contended or the
          queue starts draining. Must be [>= 1]; ignored when
          [shards = 1]. *)
  seed : int option;
      (** fixed seed for per-handle RNG streams. [None] (the default) draws
          from a process-global counter, so distinct queues get distinct
          probe sequences. [Some s] makes handle RNGs a deterministic
          function of registration order within this queue — used by the
          property suite to compare a sharded queue bit-for-bit against a
          plain one. *)
  obs : Zmsq_obs.Level.t;
      (** instrumentation level: [Off] (nothing), [Counters] (sharded event
          counters only — the default, near-zero cost), or [Full] (latency
          histograms + trace-event ring). Defaults from the [ZMSQ_OBS]
          environment variable; see OBSERVABILITY.md. *)
  obs_sample_shift : int;
      (** QoS sampling rate at the [Full] level: each extract (and insert,
          for sojourn probes) is sampled with probability [1 / 2^shift].
          [0] samples every operation; the range is [[0, 30]]. Defaults
          from [ZMSQ_OBS_SAMPLE] (the shift, not the probability), falling
          back to [8], i.e. 1/256. Ignored below [Full]. *)
}

val default : t
(** The paper's recommended static configuration:
    [batch = 48], [target_len = 72], trylocks, no blocking, no hazard
    pointers, every insertion enhancement enabled. *)

val validate : t -> t
(** Returns the record unchanged or raises [Invalid_argument]. *)

val strict : t
(** [batch = 0]: exact extract-max (mound-equivalent semantics). *)

val static : int -> t
(** [static n] sets [batch = target_len = n] (the paper's "static"
    configurations of Figure 3). *)

val dynamic : ratio_num:int -> ratio_den:int -> threads:int -> t
(** The paper's "dynamic" configurations: the smaller of [batch] and
    [target_len] equals [threads] and their ratio is
    [ratio_num:ratio_den] — e.g. [dynamic ~ratio_num:2 ~ratio_den:3
    ~threads:8] is the paper's "dynamic (1:1.5)" at 8 threads, i.e.
    batch 8, target_len 12. *)

val with_batch : int -> t -> t
val with_target_len : int -> t -> t

val with_buffer_len : int -> t -> t
(** Sets the per-handle insert-buffer capacity (re-validating, so raises
    if it exceeds [target_len]). [0] disables buffering. *)

val with_shards : int -> t -> t
(** Sets the shard count for {!Zmsq.Shard} (re-validating, so raises if
    [< 1]). *)

val with_stickiness : int -> t -> t
(** Sets the sticky-routing run length (re-validating, so raises if
    [< 1]). *)

val with_seed : int -> t -> t
(** Fixes the per-handle RNG seed (sets {!field-seed} to [Some _]). *)

val with_obs : Zmsq_obs.Level.t -> t -> t

val with_obs_sample : int -> t -> t
(** Sets {!field-obs_sample_shift} (re-validating the [[0, 30]] range). *)

val pp : Format.formatter -> t -> unit

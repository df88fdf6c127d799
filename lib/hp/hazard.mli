(** Hazard pointers (Michael, 2004) — the paper's safe-memory-reclamation
    substrate (Section 3.5).

    OCaml's GC already guarantees safety, so this implementation exists to
    reproduce the *cost* of memory safety: protected reads publish to shared
    slots and retirement scans all published pointers before recycling a
    node into its free pool, exactly the work a C++ implementation performs.
    ZMSQ uses it only with [Params.hazards] set, which the paper-figure
    instances do; the default queue and the "leak" comparators bypass it.

    ZMSQ needs at most two hazard pointers per thread (three with a
    list-based set); the default [slots_per_thread] is 3.

    Functorized over {!Zmsq_prim.Intf.PRIM}: the toplevel values are the
    native instantiation; [zmsq_check] model-checks [Make] applied to
    schedulable primitives (its retire-vs-protect regression explores the
    publication / re-validation race exhaustively). *)

module type S = sig
  type 'a atomic_src
  (** The atomic cell type protected reads load from ([P.Atomic.t]). *)

  type 'a t
  (** A reclamation domain managing nodes of type ['a]. *)

  type 'a thread
  (** A registered participant. Thread records are single-owner: each domain
      (or systhread) must register for itself. *)

  val create :
    ?slots_per_thread:int ->
    ?max_threads:int ->
    ?scan_threshold:int ->
    recycle:('a -> unit) ->
    unit ->
    'a t
  (** [create ~recycle ()] builds a domain. [recycle] is invoked on a retired
      node once no hazard pointer can reach it (e.g. push it onto a free
      list). [scan_threshold] bounds the retire-list length before a scan
      (default [2 * max_threads * slots_per_thread]). *)

  val register : 'a t -> 'a thread
  (** Claim a thread record. Raises [Invalid_argument] (reporting the
      live/max record counts) when all [max_threads] records are already
      live. A record released by {!unregister} is immediately reusable by
      the next [register], so register/unregister churn does not leak. *)

  val unregister : 'a thread -> unit
  (** Release the record (clears its slots, flushes its retire list into the
      shared pool for later scans). May be called by a thread other than
      the registering one, provided ownership of the record was handed
      over first — this is how [Zmsq.reclaim_orphans] releases the record
      of a crashed producer after CAS-claiming its handle. *)

  val live_threads : 'a t -> int
  (** Number of currently registered (active) thread records. *)

  val max_threads : 'a t -> int
  (** Capacity of the record table. *)

  val protect : 'a thread -> slot:int -> 'a atomic_src -> 'a
  (** [protect th ~slot src] reads [src], publishes the value in [slot], and
      re-validates until the published value equals the current content of
      [src] — the standard acquire loop. *)

  val set : 'a thread -> slot:int -> 'a -> unit
  (** Publish a value already known to be reachable (e.g. read under a lock). *)

  val clear : 'a thread -> slot:int -> unit

  val clear_all : 'a thread -> unit

  val retire : 'a thread -> 'a -> unit
  (** Mark a node logically removed; it is recycled after some later scan
      finds no slot holding it. *)

  val flush : 'a thread -> unit
  (** Force a scan of this thread's retire list now (tests/teardown). *)

  (** {2 Instrumentation} *)

  val retired_count : 'a t -> int
  val recycled_count : 'a t -> int
  val scan_count : 'a t -> int

  val live_retired : 'a t -> int
  (** Nodes retired but not yet recycled. *)
end

module Make (P : Zmsq_prim.Intf.PRIM) : S with type 'a atomic_src = 'a P.Atomic.t

include S with type 'a atomic_src = 'a Stdlib.Atomic.t

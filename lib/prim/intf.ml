(** The synchronization-primitive signature every concurrent module in this
    repository is functorized over.

    Two implementations exist:

    - {!Native} (this library) — the real [Stdlib.Atomic] / [Stdlib.Mutex]
      plus the userspace futex. Production code paths go through it; the
      functor applications are fixed at module-definition time so the only
      cost over direct calls is the (non-flambda) cross-functor call.
    - [Zmsq_check.Shim] — a *schedulable* implementation in which every
      load/store/CAS/fetch-and-add is a yield point under a controlled
      single-domain scheduler, enabling deterministic exhaustive
      interleaving exploration (see ANALYSIS.md).

    A third, {!Faulty}, is an adapter rather than an implementation: it
    wraps either of the above and injects seeded, semantics-preserving
    faults (forced trylock failures, delayed-then-reposted futex wakes,
    spurious timed-wait timeouts, stalls inside claim/consume windows,
    whole-domain freezes) for the chaos scenarios and the soak runner.

    Algorithm code must never touch [Stdlib.Atomic], [Stdlib.Mutex],
    [Domain.cpu_relax] or a raw futex directly — the [zmsq_analyze] pass
    enforces this for files marked [(* lint: prim-functorized *)]. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** Physical-equality compare, exactly like [Stdlib.Atomic]. *)

  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val try_lock : t -> bool
  val unlock : t -> unit
end

(** The futex word of the paper's Listing 3: a plain-atomics-readable word
    plus a kernel-side (or, under the checker, scheduler-side) wait queue. *)
module type FUTEX = sig
  type t

  val create : int -> t
  val get : t -> int
  val compare_and_set : t -> int -> int -> bool

  val wait : t -> int -> unit
  (** [wait t expected] blocks while the word equals [expected]; returns
      immediately otherwise. Spurious wakeups allowed. *)

  val wait_for : t -> int -> timeout_ns:int -> bool
  (** [wait] with a deadline: [true] when the word changed, [false] on
      timeout. The checker implementation never times out. *)

  val wake : t -> unit
  (** Wake every thread currently blocked in {!wait} on [t]. *)
end

(** A tracked non-atomic cell: the declared home for every mutable field
    that is shared across threads but deliberately *not* an atomic. Native
    code pays nothing (the cell is exactly a [ref]); under the checker each
    access is an epoch-checked event in the happens-before race detector
    ([Zmsq_check.Race]), so an access pair with no synchronization between
    it is reported with both stacks and a replayable schedule.

    [?benign] declares a known racy-by-design cell: the detector skips it,
    and the reason string plus a matching [(* race: benign <reason> *)]
    comment at the declaration site document why the race is acceptable
    (see ANALYSIS.md, "Race annotation vocabulary"). *)
module type PLAIN = sig
  type 'a t

  val make : ?benign:string -> ?name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module type PRIM = sig
  module Atomic : ATOMIC
  module Mutex : MUTEX
  module Futex : FUTEX
  module Plain : PLAIN

  val cpu_relax : unit -> unit
  (** Spin-loop hint. A no-op under the checker (every spin loop must
      contain an atomic read, which is already a yield point). *)

  val name : string
end

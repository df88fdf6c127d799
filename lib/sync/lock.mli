(** Lock implementations compared in the paper's Section 4.1 (Figure 2).

    Every ZMSQ/mound tree node carries one of these. The paper's key insight
    is that [try_acquire]-and-restart beats blocking acquisition for
    optimistic read-before-lock patterns, because a locked node predicts a
    failed revalidation.

    The implementations are functorized over {!Zmsq_prim.Intf.PRIM} so the
    identical spin/CAS code also runs under the deterministic concurrency
    checker ([zmsq_check]); the toplevel modules are the native
    instantiations. *)

module type S = sig
  type t

  val create : unit -> t

  val acquire : t -> unit
  (** Blocking acquisition (spinning for TAS/TATAS). *)

  val try_acquire : t -> bool
  (** Single attempt; never blocks. *)

  val release : t -> unit

  val name : string
  (** Display name used in benchmark tables. *)
end

module Faulty (L : S) (F : sig
  val fail_try_acquire : unit -> bool
end) : S
(** Fault-injection wrapper: [try_acquire] additionally fails whenever
    [F.fail_try_acquire ()] says so (a legal spurious contention loss);
    everything else forwards to [L]. Used by the chaos scenarios and the
    soak runner together with {!Zmsq_prim.Faulty}. *)

module Make (P : Zmsq_prim.Intf.PRIM) : sig
  module Tas : S
  module Tatas : S
  module Mutex_lock : S
end

module Tas : S
(** Test-and-set: unconditional atomic exchange on every attempt. *)

module Tatas : S
(** Test-and-test-and-set: read before exchanging; cheaper under
    contention because failed probes stay in shared cache state. *)

module Mutex_lock : S
(** OS mutex ([Stdlib.Mutex]), standing in for C++ [std::mutex]. *)

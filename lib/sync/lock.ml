(* lint: prim-functorized *)

module type S = sig
  type t

  val create : unit -> t
  val acquire : t -> unit
  val try_acquire : t -> bool
  val release : t -> unit
  val name : string
end

(* A [try_acquire]-perturbing wrapper: forwards to [L] but lets a fault
   policy (e.g. [Zmsq_prim.Faulty.Ctl.inject_try_acquire_failure]) force
   single-attempt failures. Semantically a forced failure is just losing
   the acquisition race — [try_acquire] promises nothing on contention —
   but it is hostile to optimistic read/trylock/revalidate callers, which
   is the point. Spin locks need this wrapper because their try path never
   reaches [P.Mutex.try_lock], where the Faulty PRIM injects directly. *)
module Faulty (L : S) (F : sig
  val fail_try_acquire : unit -> bool
end) : S = struct
  type t = L.t

  let create = L.create
  let acquire = L.acquire
  let try_acquire t = (not (F.fail_try_acquire ())) && L.try_acquire t
  let release = L.release
  let name = L.name ^ "+faulty"
end

(* Every lock is written once against the primitive signature; the native
   instantiations below are what production code links against, while the
   checker applies [Make] to its schedulable primitives so the identical
   acquire/release code runs under controlled interleaving. *)
module Make (P : Zmsq_prim.Intf.PRIM) = struct
  module Atomic = P.Atomic

  module Tas = struct
    type t = bool Atomic.t

    let create () = Atomic.make false
    let try_acquire t = not (Atomic.exchange t true)

    let acquire t =
      while Atomic.exchange t true do
        P.cpu_relax () (* lint: allow unbounded-spin the Fig. 2 TAS spinlock *)
      done

    let release t = Atomic.set t false
    let name = "tas"
  end

  module Tatas = struct
    type t = bool Atomic.t

    let create () = Atomic.make false
    let try_acquire t = (not (Atomic.get t)) && not (Atomic.exchange t true)

    let acquire t =
      let rec go () =
        if Atomic.get t then begin
          P.cpu_relax (); (* lint: allow unbounded-spin the Fig. 2 TATAS spinlock *)
          go ()
        end
        else if Atomic.exchange t true then go ()
      in
      go ()

    let release t = Atomic.set t false
    let name = "tatas"
  end

  module Mutex_lock = struct
    type t = P.Mutex.t

    let create () = P.Mutex.create ()
    let acquire = P.Mutex.lock
    let try_acquire = P.Mutex.try_lock
    let release = P.Mutex.unlock
    let name = "mutex"
  end
end

include Make (Zmsq_prim.Native)

(* Fault-injecting PRIM adapter: wraps any {!Intf.PRIM} and, driven by a
   seeded per-domain policy, perturbs exactly the operations whose timing
   the wrapped primitives already leave unspecified. Everything injected is
   a *legal* execution of the unmodified primitives — a forced [try_lock]
   failure is indistinguishable from losing the race, a delayed futex wake
   is a waker preempted just before the syscall — so any algorithm failure
   the adapter provokes is a real bug, not an artifact.

   Knobs (all "1 in N" rates; 0 disables):
   - [trylock_fail_1in]    — force [Mutex.try_lock] to report failure (spin
                             locks route through {!Zmsq_sync.Lock.Faulty}
                             and consult {!Ctl.inject_try_acquire_failure}).
   - [wake_delay_1in]      — hold a [Futex.wake] and repost it after
                             [wake_delay_ops] later primitive operations
                             (delayed, never dropped: {!Ctl.quiesce} drains
                             the backlog).
   - [spurious_timeout_1in]— make [Futex.wait_for] report a timeout without
                             waiting (allowed: the caller must re-check).
   - [stall_faa_1in]       — stall right after a [fetch_and_add], widening
                             e.g. the lagging-consumer window between the
                             pool-index claim and the slot exchange in
                             [Zmsq.extract_from_pool].
   - [stall_exchange_1in]  — stall right before an [exchange] (the other
                             half of the same window, and lock handoffs).
   - Freeze gates ({!Ctl.freeze}/{!Ctl.thaw}) park a whole domain at its
     next primitive operation — e.g. a producer with a nonempty insert
     buffer — until thawed. Native-only (under the single-domain model
     shim every fiber shares one [Domain.self]).

   The functor is generative: each application gets fresh policy state and
   fresh per-domain RNGs, so a checker scenario that instantiates it inside
   [make] is deterministic per execution and replayable. The control state
   deliberately uses [Stdlib] primitives — it is harness machinery that
   must stay invisible to the model scheduler (a fault decision is not a
   yield point) and is exempt from the prim-functorized lint. *)

module Rng = Zmsq_util.Rng

type config = {
  seed : int;
  trylock_fail_1in : int;
  wake_delay_1in : int;
  wake_delay_ops : int;  (** primitive ops a delayed wake waits before repost *)
  spurious_timeout_1in : int;
  stall_faa_1in : int;
  stall_exchange_1in : int;
  stall_relax : int;  (** [cpu_relax] iterations per injected stall *)
  io_short_1in : int;  (** truncate a socket read/write to one byte *)
  io_stall_1in : int;  (** stall before a socket op (slow peer) *)
  io_drop_1in : int;  (** sever the connection mid-operation *)
  io_torn_1in : int;  (** corrupt the frame boundary (torn length prefix) *)
}

let off =
  {
    seed = 0;
    trylock_fail_1in = 0;
    wake_delay_1in = 0;
    wake_delay_ops = 8;
    spurious_timeout_1in = 0;
    stall_faa_1in = 0;
    stall_exchange_1in = 0;
    stall_relax = 0;
    io_short_1in = 0;
    io_stall_1in = 0;
    io_drop_1in = 0;
    io_torn_1in = 0;
  }

(* Wire-level faults are consulted by the socket layer ({!Zmsq_net}), not
   injected by the PRIM wrappers themselves: sockets are not primitive
   operations, but the same seeded per-domain policy machinery (rates,
   exemption, determinism) applies, so the soak's fault-exempt monitor
   stays exempt from wire chaos too. Ordered by destructiveness — a
   single consult returns at most one fault. *)
type io_fault =
  | Io_none
  | Io_drop  (** close the peer socket mid-operation *)
  | Io_torn  (** flip/truncate bytes of the length prefix *)
  | Io_short  (** deliver/accept only one byte this call *)
  | Io_stall  (** delay the operation (slow client / full buffer) *)

module type CTL = sig
  val install : config -> unit
  (** Set the active policy and reseed the per-domain RNGs. Call before the
      domains under test start; installing concurrently with running
      workers is not meaningful. *)

  val active : unit -> config

  val reset : unit -> unit
  (** [install off], thaw every domain and drain delayed wakes. *)

  val self_key : unit -> int
  (** This domain's freeze/exemption key (the domain id, folded). *)

  val freeze : int -> unit
  (** Park the keyed domain at its next primitive operation until
      {!thaw}. Native-only; never freeze your own key. *)

  val thaw : int -> unit

  val crash : int -> unit
  (** Permanently freeze the keyed domain — the model of a thread that
      died without unregistering its queue handle. Unlike {!freeze} the
      key is recorded ({!crashed}), so a harness can distinguish injected
      deaths from transient freezes; a crashed domain is only released by
      {!thaw} (for teardown joins) or {!reset}. A domain may crash its own
      key: it parks at its next primitive operation. *)

  val crashed : unit -> int list
  (** Keys crashed since the last {!reset}, oldest first. *)

  val exempt_self : unit -> unit
  (** Opt this domain (e.g. a watchdog/monitor) out of fault firing and
      freeze gates, so observation timing stays honest. *)

  val quiesce : unit -> unit
  (** Deliver every delayed wake now. Watchdogs call this periodically so
      "delayed" can never silently become "dropped". *)

  val inject_try_acquire_failure : unit -> bool
  (** Policy consult for {!Zmsq_sync.Lock.Faulty} wrappers: true when this
      attempt must be failed (counted like a [try_lock] injection). *)

  val inject_io : unit -> io_fault
  (** Policy consult for the socket layer: which wire fault (if any) this
      I/O operation must suffer. At most one fault per consult, most
      destructive first (drop > torn > short > stall); exempt domains
      always get [Io_none]. Counted in {!stats}. *)

  val stats : unit -> (string * int) list
  (** Injection counters: trylock_failures, wakes_delayed, wakes_reposted,
      spurious_timeouts, stalls, freeze_waits, io_shorts, io_stalls,
      io_drops, io_torn. *)
end

module Make (P : Intf.PRIM) () : sig
  include Intf.PRIM

  module Ctl : CTL
end = struct
  let cfg = Stdlib.Atomic.make off
  let n_keys = 256
  let key () = (Domain.self () :> int) land (n_keys - 1)
  let frozen = Array.init n_keys (fun _ -> Stdlib.Atomic.make false)
  let exempt = Array.init n_keys (fun _ -> Stdlib.Atomic.make false)
  let crashed_flags = Array.init n_keys (fun _ -> Stdlib.Atomic.make false)

  (* Per-domain RNG streams: fault decisions in one domain never perturb
     another domain's sequence, so a fixed seed is reproducible per domain
     regardless of interleaving. (Key collisions after 256 domains would
     share a stream; harnesses never get near that.) *)
  let rngs : Rng.t option array = Array.make n_keys None

  let rng_for k =
    match rngs.(k) with
    | Some r -> r
    | None ->
        let r =
          Rng.create ~seed:((Stdlib.Atomic.get cfg).seed lxor (0x9E3779B9 * (k + 1))) ()
        in
        rngs.(k) <- Some r;
        r

  let c_trylock = Stdlib.Atomic.make 0
  let c_wake_delayed = Stdlib.Atomic.make 0
  let c_wake_reposted = Stdlib.Atomic.make 0
  let c_spurious = Stdlib.Atomic.make 0
  let c_stalls = Stdlib.Atomic.make 0
  let c_freeze_waits = Stdlib.Atomic.make 0
  let c_crashes = Stdlib.Atomic.make 0
  let c_io_short = Stdlib.Atomic.make 0
  let c_io_stall = Stdlib.Atomic.make 0
  let c_io_drop = Stdlib.Atomic.make 0
  let c_io_torn = Stdlib.Atomic.make 0

  let fire rate =
    rate > 0
    &&
    let k = key () in
    (not (Stdlib.Atomic.get exempt.(k))) && Rng.int (rng_for k) rate = 0

  (* Delayed wakes: (futex, remaining-op countdown). Reposts happen at the
     adapter level — before delegating the next op — never from inside a
     wrapped operation's own execution (under the model shim that would
     nest effects inside the scheduler's handler). *)
  let pending_mu = Stdlib.Mutex.create ()
  let pending : (P.Futex.t * int ref) list ref = ref []
  let pending_n = Stdlib.Atomic.make 0

  let drain ~all =
    let due = ref [] in
    Stdlib.Mutex.lock pending_mu;
    Fun.protect
      ~finally:(fun () -> Stdlib.Mutex.unlock pending_mu)
      (fun () ->
        pending :=
          List.filter
            (fun (fx, left) ->
              decr left;
              if all || !left <= 0 then begin
                due := fx :: !due;
                false
              end
              else true)
            !pending;
        Stdlib.Atomic.set pending_n (List.length !pending));
    List.iter
      (fun fx ->
        Stdlib.Atomic.incr c_wake_reposted;
        P.Futex.wake fx)
      !due

  let defer_wake fx =
    let ops = max 1 (Stdlib.Atomic.get cfg).wake_delay_ops in
    Stdlib.Atomic.incr c_wake_delayed;
    Stdlib.Mutex.lock pending_mu;
    Fun.protect
      ~finally:(fun () -> Stdlib.Mutex.unlock pending_mu)
      (fun () ->
        pending := (fx, ref ops) :: !pending;
        Stdlib.Atomic.set pending_n (List.length !pending))

  let gate () =
    let k = key () in
    if Stdlib.Atomic.get frozen.(k) && not (Stdlib.Atomic.get exempt.(k)) then begin
      Stdlib.Atomic.incr c_freeze_waits;
      while Stdlib.Atomic.get frozen.(k) do
        P.cpu_relax () (* lint: allow unbounded-spin a frozen domain models a descheduled thread *)
      done
    end

  (* Every wrapped op passes through here: honor a freeze, deliver due
     delayed wakes. *)
  let tick () =
    gate ();
    if Stdlib.Atomic.get pending_n > 0 then drain ~all:false

  let stall () =
    Stdlib.Atomic.incr c_stalls;
    for _ = 1 to (Stdlib.Atomic.get cfg).stall_relax do
      P.cpu_relax ()
    done

  module Ctl = struct
    let active () = Stdlib.Atomic.get cfg

    let install c =
      Stdlib.Atomic.set cfg c;
      Array.fill rngs 0 n_keys None

    let self_key () = key ()
    let freeze k = Stdlib.Atomic.set frozen.(k land (n_keys - 1)) true
    let thaw k = Stdlib.Atomic.set frozen.(k land (n_keys - 1)) false

    let crash k =
      let k = k land (n_keys - 1) in
      if not (Stdlib.Atomic.get crashed_flags.(k)) then begin
        Stdlib.Atomic.set crashed_flags.(k) true;
        Stdlib.Atomic.incr c_crashes
      end;
      Stdlib.Atomic.set frozen.(k) true

    let crashed () =
      List.filter
        (fun k -> Stdlib.Atomic.get crashed_flags.(k))
        (List.init n_keys Fun.id)

    let exempt_self () = Stdlib.Atomic.set exempt.(key ()) true
    let quiesce () = drain ~all:true

    let reset () =
      install off;
      Array.iter (fun a -> Stdlib.Atomic.set a false) frozen;
      Array.iter (fun a -> Stdlib.Atomic.set a false) crashed_flags;
      quiesce ()

    let inject_try_acquire_failure () =
      let hit = fire (Stdlib.Atomic.get cfg).trylock_fail_1in in
      if hit then Stdlib.Atomic.incr c_trylock;
      hit

    let inject_io () =
      let c = Stdlib.Atomic.get cfg in
      if fire c.io_drop_1in then begin
        Stdlib.Atomic.incr c_io_drop;
        Io_drop
      end
      else if fire c.io_torn_1in then begin
        Stdlib.Atomic.incr c_io_torn;
        Io_torn
      end
      else if fire c.io_short_1in then begin
        Stdlib.Atomic.incr c_io_short;
        Io_short
      end
      else if fire c.io_stall_1in then begin
        Stdlib.Atomic.incr c_io_stall;
        Io_stall
      end
      else Io_none

    let stats () =
      [
        ("trylock_failures", Stdlib.Atomic.get c_trylock);
        ("wakes_delayed", Stdlib.Atomic.get c_wake_delayed);
        ("wakes_reposted", Stdlib.Atomic.get c_wake_reposted);
        ("spurious_timeouts", Stdlib.Atomic.get c_spurious);
        ("stalls", Stdlib.Atomic.get c_stalls);
        ("freeze_waits", Stdlib.Atomic.get c_freeze_waits);
        ("crashes", Stdlib.Atomic.get c_crashes);
        ("io_shorts", Stdlib.Atomic.get c_io_short);
        ("io_stalls", Stdlib.Atomic.get c_io_stall);
        ("io_drops", Stdlib.Atomic.get c_io_drop);
        ("io_torn", Stdlib.Atomic.get c_io_torn);
      ]
  end

  module Atomic = struct
    type 'a t = 'a P.Atomic.t

    let make = P.Atomic.make

    let get t =
      tick ();
      P.Atomic.get t

    let set t v =
      tick ();
      P.Atomic.set t v

    let exchange t v =
      tick ();
      if fire (Stdlib.Atomic.get cfg).stall_exchange_1in then stall ();
      P.Atomic.exchange t v

    let compare_and_set t a b =
      tick ();
      P.Atomic.compare_and_set t a b

    let fetch_and_add t d =
      tick ();
      let v = P.Atomic.fetch_and_add t d in
      (* Stall with the FAA result already claimed: for the batch pool this
         is exactly the lagging-consumer window between taking a pool index
         and consuming the slot. *)
      if fire (Stdlib.Atomic.get cfg).stall_faa_1in then stall ();
      v

    let incr t =
      tick ();
      P.Atomic.incr t

    let decr t =
      tick ();
      P.Atomic.decr t
  end

  module Mutex = struct
    type t = P.Mutex.t

    let create = P.Mutex.create

    let lock t =
      tick ();
      P.Mutex.lock t

    let try_lock t =
      tick ();
      if Ctl.inject_try_acquire_failure () then false else P.Mutex.try_lock t

    let unlock t =
      tick ();
      P.Mutex.unlock t
  end

  (* Plain cells pass straight through: a non-atomic access is not a
     primitive operation (no [tick], no yield point under the shim), and
     perturbing its timing is the scheduler's job, not the fault policy's.
     Forwarding keeps the wrapped PRIM's race tracking intact. *)
  module Plain = P.Plain

  module Futex = struct
    type t = P.Futex.t

    let create = P.Futex.create

    let get t =
      tick ();
      P.Futex.get t

    let compare_and_set t a b =
      tick ();
      P.Futex.compare_and_set t a b

    let wait t e =
      tick ();
      P.Futex.wait t e

    let wait_for t e ~timeout_ns =
      tick ();
      if fire (Stdlib.Atomic.get cfg).spurious_timeout_1in then begin
        Stdlib.Atomic.incr c_spurious;
        false
      end
      else P.Futex.wait_for t e ~timeout_ns

    let wake t =
      tick ();
      if fire (Stdlib.Atomic.get cfg).wake_delay_1in then defer_wake t
      else P.Futex.wake t
  end

  let cpu_relax () =
    tick ();
    P.cpu_relax ()

  let name = "faulty(" ^ P.name ^ ")"
end

(* The production primitives: real atomics, real mutexes, and the
   userspace futex (mutex + condition variable standing in for the Linux
   syscall). This module satisfies [Intf.PRIM] by construction; the
   signature constraint lives at the use sites so native callers keep the
   concrete [Stdlib] types. *)

module Atomic = Stdlib.Atomic
module Mutex = Stdlib.Mutex

(* Zero-cost tracked cell: the record is exactly [ref], the labels are
   dropped at [make] time, and [get]/[set] compile to one load/store. The
   checker's shim gives the same API an epoch-checked implementation. *)
module Plain = struct
  type 'a t = { mutable v : 'a }

  let make ?benign:_ ?name:_ v = { v }
  let get t = t.v
  let set t v = t.v <- v
end

module Futex = struct
  (* lint: unpadded word/mu/cond are one wait-channel; sleepers serialize on mu anyway *)
  type t = { word : int Atomic.t; mu : Mutex.t; cond : Condition.t }

  let create v = { word = Atomic.make v; mu = Mutex.create (); cond = Condition.create () }

  let get t = Atomic.get t.word

  let compare_and_set t expected desired = Atomic.compare_and_set t.word expected desired

  (* The mutex only guards the sleep/wake rendezvous. Writers update the
     word with plain atomics (as userspace futex code does) and then take
     the mutex in [wake]; because [wait] re-checks the word after taking
     the mutex, a wake that follows a word change can never be lost. *)
  let wait t expected =
    if Atomic.get t.word = expected then begin
      Mutex.lock t.mu;
      (* lint: ok — Condition.wait can be interrupted; the lock must be
         released on every raise path. *)
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.mu)
        (fun () ->
          while Atomic.get t.word = expected do
            Condition.wait t.cond t.mu
          done)
    end

  let wait_for t expected ~timeout_ns =
    if timeout_ns <= 0 then Atomic.get t.word <> expected
    else begin
      let deadline = Zmsq_util.Timing.now_ns () + timeout_ns in
      (* brief spin first: most handoffs are fast *)
      let spins = ref 256 in
      while !spins > 0 && Atomic.get t.word = expected do
        Domain.cpu_relax ();
        decr spins
      done;
      let sleep = ref 2e-6 in
      let rec poll () =
        if Atomic.get t.word <> expected then true
        else if Zmsq_util.Timing.now_ns () >= deadline then false
        else begin
          Unix.sleepf !sleep;
          sleep := Float.min 1e-3 (!sleep *. 2.0);
          poll ()
        end
      in
      poll ()
    end

  let wake t =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () -> Condition.broadcast t.cond)
end

let cpu_relax = Domain.cpu_relax

let name = "native"

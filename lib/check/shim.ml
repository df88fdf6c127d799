(* The schedulable implementation of {!Zmsq_prim.Intf.PRIM}: plain mutable
   cells whose every access is a {!Sched} yield point. Functor-applying the
   production code to [Shim.Prim] puts the identical algorithm under the
   model checker's control.

   Every operation also feeds the happens-before race detector ({!Race}):
   atomic and futex accesses are acquire+release events on their object
   (OCaml's memory model synchronizes same-location atomic accesses), a
   mutex lock/successful trylock acquires and an unlock releases through
   the mutex object, and [Plain] cells — the model half of the PRIM
   tracked-cell API — are epoch-checked on every access. *)

module Prim : Zmsq_prim.Intf.PRIM = struct
  (* All sync events fire inside [run] closures, where [Sched.current] is
     the executing thread (or -1 outside fibers, which the detector
     ignores — scenario [make] and final checks are quiescent). *)
  let sync obj = Race.sync ~tid:(Sched.current ()) ~obj

  module Atomic = struct
    type 'a t = { id : int; mutable v : 'a }

    let make v = { id = Sched.fresh_obj (); v }

    let get t =
      Sched.simple ~kind:Sched.Get ~obj:t.id (fun () ->
          sync t.id;
          t.v)

    let set t x =
      Sched.simple ~kind:Sched.Set ~obj:t.id (fun () ->
          sync t.id;
          t.v <- x)

    let exchange t x =
      Sched.simple ~kind:Sched.Exchange ~obj:t.id (fun () ->
          sync t.id;
          let old = t.v in
          t.v <- x;
          old)

    let compare_and_set t expect replace =
      Sched.simple ~kind:Sched.Cas ~obj:t.id (fun () ->
          sync t.id;
          if t.v == expect then begin
            t.v <- replace;
            true
          end
          else false)

    let fetch_and_add t d =
      Sched.simple ~kind:Sched.Faa ~obj:t.id (fun () ->
          sync t.id;
          let old = t.v in
          t.v <- old + d;
          old)

    let incr t = ignore (fetch_and_add t 1)
    let decr t = ignore (fetch_and_add t (-1))
  end

  module Mutex = struct
    type t = { id : int; mutable held : bool }

    let create () = { id = Sched.fresh_obj (); held = false }

    (* Blocking acquisition is modeled as a step that is *disabled* while
       the mutex is held — no spinning executions exist, and a thread stuck
       here with no possible unlocker surfaces as a deadlock. *)
    let lock t =
      Sched.op ~kind:Sched.Lock ~obj:t.id
        ~enabled:(fun () -> not t.held)
        (fun () ->
          if t.held then Sched.violation "model mutex #%d: lock while held" t.id;
          t.held <- true;
          sync t.id;
          Sched.Ret ())

    (* A failed trylock synchronizes nothing: the caller saw the lock busy
       and learned nothing about the data it guards. *)
    let try_lock t =
      Sched.simple ~kind:Sched.Trylock ~obj:t.id (fun () ->
          if t.held then false
          else begin
            t.held <- true;
            sync t.id;
            true
          end)

    let unlock t =
      Sched.simple ~kind:Sched.Unlock ~obj:t.id (fun () ->
          if not t.held then Sched.violation "model mutex #%d: unlock while free" t.id;
          sync t.id;
          t.held <- false)
  end

  module Futex = struct
    type t = { id : int; mutable v : int; mutable sleepers : int list }

    let create v = { id = Sched.fresh_obj (); v; sleepers = [] }

    let get t =
      Sched.simple ~kind:Sched.Get ~obj:t.id (fun () ->
          sync t.id;
          t.v)

    let compare_and_set t expect replace =
      Sched.simple ~kind:Sched.Cas ~obj:t.id (fun () ->
          sync t.id;
          if t.v = expect then begin
            t.v <- replace;
            true
          end
          else false)

    (* Real futex semantics: the value check and the transition to sleep
       are one atomic step. A wake that happens *before* this step makes
       the check fail (value changed) or is lost exactly as the kernel
       would lose it — which is what lost-wakeup checking is about. The
       resume half of the HB edge (waker's [wake] → sleeper's next access)
       is emitted by {!Sched.execute} when the woken fiber restarts. *)
    let wait t expect =
      Sched.op ~kind:Sched.Fwait ~obj:t.id (fun () ->
          sync t.id;
          if t.v <> expect then Sched.Ret ()
          else begin
            t.sleepers <- Sched.current () :: t.sleepers;
            Sched.Sleep_then ()
          end)

    let wait_for t expect ~timeout_ns:_ =
      (* The model never times out: a deadline that must fire to make
         progress is a liveness bug and shows up as a deadlock. *)
      wait t expect;
      true

    let wake t =
      Sched.simple ~kind:Sched.Fwake ~obj:t.id (fun () ->
          sync t.id;
          let sleepers = t.sleepers in
          t.sleepers <- [];
          List.iter Sched.wake_thread sleepers)
  end

  (* The model half of the tracked-cell API: accesses are *not* yield
     points (a data race is detected from the vector clocks regardless of
     where the scheduler actually interleaved, so tracking adds no state
     space), but each one is checked against the FastTrack epochs and the
     first racy pair is raised as a violation — which the explorer turns
     into a replayable report like any other. *)
  module Plain = struct
    type 'a t = { cell : Race.cell; mutable v : 'a }

    let make ?benign ?(name = "plain") v = { cell = Race.new_cell ?benign ~name (); v }

    let get t =
      (match Race.read ~tid:(Sched.current ()) t.cell with
      | Some race -> Sched.violation "%s" race
      | None -> ());
      t.v

    let set t x =
      (match Race.write ~tid:(Sched.current ()) t.cell with
      | Some race -> Sched.violation "%s" race
      | None -> ());
      t.v <- x
  end

  let cpu_relax () = ()
  let name = "model"
end

(* A lock for model-checking ZMSQ itself: acquire/release are single yield
   points with mutex-style enabledness, so checking the queue does not pay
   the state-space cost of exploring spin loops inside TAS/TATAS (those are
   covered by their own mutual-exclusion scenario). *)
module Lock : Zmsq_sync.Lock.S = struct
  type t = Prim.Mutex.t

  let create () = Prim.Mutex.create ()
  let acquire = Prim.Mutex.lock
  let try_acquire = Prim.Mutex.try_lock
  let release = Prim.Mutex.unlock
  let name = "model"
end

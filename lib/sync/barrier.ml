(* lint: unpadded arrived/sense are startup-only rendezvous state, not hot-path *)
type t = { parties : int; arrived : int Atomic.t; sense : bool Atomic.t }

let create parties =
  if parties <= 0 then invalid_arg "Barrier.create";
  { parties; arrived = Atomic.make 0; sense = Atomic.make false }

let wait t =
  let my_sense = not (Atomic.get t.sense) in
  if Atomic.fetch_and_add t.arrived 1 = t.parties - 1 then begin
    Atomic.set t.arrived 0;
    Atomic.set t.sense my_sense
  end
  else
    while Atomic.get t.sense <> my_sense do
      Domain.cpu_relax () (* lint: allow unbounded-spin start barrier, one party per domain *)
    done

(* lint: prim-functorized *)

(* Lock-free FAA ingress ring (ROADMAP item 2, after the loony queue —
   SNIPPETS.md Snippet 1): a bounded staging area in front of the tree so
   the hot insert path carries no lock at all.

   The ring is a short table of *staging nodes*, each an array of
   [ring_len] element slots. All ingress coordination lives in one packed
   word, the loony tagged pointer fitted to OCaml's 63-bit ints:

     tail = (generation lsl 20) lor next_slot_index

   A producer claims a slot with a single [fetch_and_add tail 1]: the old
   word names both the staging node (by generation) and the claimed slot.
   It then writes the element into the slot — elements are packed ints
   ({!Zmsq_pq.Elt}), so the slot store is itself atomic and doubles as the
   ready flag a separate bit would provide in loony — and bumps the node's
   [ready] count, the per-node aggregation of loony's per-slot ready bits
   (OCaml atomics are word-sized; a count is one FAA where a bitmask would
   need a CAS loop).

   When the slot index overflows [ring_len], the node is *sealed*: an
   overflowing producer installs a staging node for the next generation in
   the node table and CASes the tail to [(gen+1) lsl 20] in one step —
   recording on the sealed node exactly how many slots were validly
   claimed, so the flusher knows how many writes to wait for. The table
   holds [generations] nodes, which bounds ring residency at
   [generations * ring_len]: when the next table slot is still occupied by
   an undrained generation, [push] reports [Rejected] and the caller falls
   back to the ordinary (locked) tree insertion.

   The flusher — piggybacked on extraction and the flush-demand path by
   {!Zmsq_core}, exactly like PR 3's [flush_demand] — takes a trylock,
   waits for the sealed node's [ready] count to reach its sealed claim
   count, hands the whole node to the sink as one bulk batch, and retires
   the node through {!Zmsq_hp.Hazard}: the recycle callback (which runs
   only once no producer's hazard slot still references the node) resets
   the slots and ready/sealed words before the node re-enters the
   freelist. Recycling an unreset node, or draining before [ready] catches
   up with the sealed count, are exactly the two races the DFS mini-pairs
   in [lib/check/scenarios.ml] pin down.

   Why a node can never be drained out from under a claim: the seal CAS
   happens after every counted claim's FAA, so a claimed-but-unwritten
   slot holds the [ready] count below [sealed] and the flusher waits.
   A producer that crashes *inside* the claim-to-write window would wedge
   that generation — the same quiescence requirement the handle-orphan
   protocol already imposes (crashes happen between operations, not inside
   them); the soak's fault injection stalls this window but never abandons
   it. *)

module Elt = Zmsq_pq.Elt

(* Staging-node generations resident in the node table (power of two).
   Ring capacity is [generations * ring_len]; see Params.ring_capacity. *)
let generations = 4

(* Packed-word layout: low 20 bits = slot index (validated <= 4096 by
   Params, so overshoot by concurrent claimers has ~2^20 of headroom
   before it could touch the generation bits — [push] pre-reads the word
   and only FAAs while the index is below capacity, bounding overshoot by
   the number of concurrent producers). High bits = generation. *)
let idx_bits = 20

let idx_mask = (1 lsl idx_bits) - 1

(* How many [cpu_relax] iterations a drain spends waiting on another
   producer's in-flight store (the tail-CAS → sealed gap, or a claimed
   slot's outstanding ready bump) before giving up the round. Long enough
   to cover a genuinely concurrent writer's handful of instructions;
   short enough that a *descheduled* writer costs the flusher a bounded
   slice of its quantum instead of all of it. *)
let stall_budget = 4096

type push_result =
  | Pushed  (** claimed, written, visible to the next drain *)
  | Pushed_sealed  (** same, and a node just filled/sealed: worth draining *)
  | Rejected  (** ring full (every table slot undrained): fall back *)

module Make (P : Zmsq_prim.Intf.PRIM) = struct
  module Atomic = P.Atomic
  module Mutex = P.Mutex
  module Plain = P.Plain
  module Hazard = Zmsq_hp.Hazard.Make (P)

  type node = {
    gen : int Plain.t; (* written by the installer before the table CAS publishes the node *)
    slots : Elt.t Atomic.t array; (* lint: unpadded claim-indexed slots; one write per slot per generation *)
    ready : int Atomic.t; (* lint: unpadded per-node write count; one FAA per push, node-granular *)
    sealed : int Atomic.t; (* lint: unpadded claim count at seal (-1 = live); written once per generation *)
  }

  type t = {
    cap : int; (* slots per staging node *)
    nmask : int; (* node-table index mask *)
    ntab : node option Atomic.t array; (* lint: unpadded generation -> staging node; CAS at install, cleared by the flusher *)
    tail : int Atomic.t; (* lint: unpadded packed (gen, idx) ingress word; the hot FAA by design *)
    head : int Atomic.t; (* lint: unpadded next generation to drain; written under flush_mu, read by debug *)
    count : int Atomic.t; (* lint: unpadded ring-resident elements; emptiness checks on the extract path *)
    free : node list Atomic.t; (* lint: unpadded recycled-node freelist (Treiber); drain-rate traffic *)
    flush_mu : Mutex.t; (* single flusher at a time; try-locked *)
    scratch : Elt.t array; (* drain staging, guarded by flush_mu *)
    hp : node Hazard.t option; (* None in leaky mode *)
  }

  type producer = { r : t; th : node Hazard.thread option }

  let fresh_node cap =
    {
      gen = Plain.make ~name:"zmsq_ring.node.gen" 0;
      slots = Array.init cap (fun _ -> Atomic.make Elt.none);
      ready = Atomic.make 0;
      sealed = Atomic.make (-1);
    }

  let reset n =
    Array.iter (fun s -> Atomic.set s Elt.none) n.slots;
    Atomic.set n.ready 0;
    Atomic.set n.sealed (-1)

  let rec free_push free n =
    let l = Atomic.get free in
    if not (Atomic.compare_and_set free l (n :: l)) then free_push free n

  let rec free_pop free =
    match Atomic.get free with
    | [] -> None
    | n :: rest as l -> if Atomic.compare_and_set free l rest then Some n else free_pop free

  let create ?(leaky = false) ?(nodes = generations) ~slots () =
    if slots < 1 || slots > idx_mask lsr 1 then invalid_arg "Zmsq_ring.create: slots";
    if nodes < 2 || nodes land (nodes - 1) <> 0 then
      invalid_arg "Zmsq_ring.create: nodes must be a power of two >= 2";
    let free = Atomic.make [] in
    let hp =
      if leaky then None
      else
        Some
          (Hazard.create ~slots_per_thread:1 ~scan_threshold:(2 * nodes)
             ~recycle:(fun n ->
               (* Reset *before* the node can re-enter service: a stale
                  ready/sealed pair would let the next generation's drain
                  run early and replay this generation's elements. *)
               reset n;
               free_push free n)
             ())
    in
    let ntab = Array.init nodes (fun _ -> Atomic.make None) in
    Atomic.set ntab.(0) (Some (fresh_node slots));
    {
      cap = slots;
      nmask = nodes - 1;
      ntab;
      tail = Atomic.make 0;
      head = Atomic.make 0;
      count = Atomic.make 0;
      free;
      flush_mu = Mutex.create ();
      scratch = Array.make slots Elt.none;
      hp;
    }

  let producer r = { r; th = Option.map Hazard.register r.hp }
  let release_producer p = Option.iter Hazard.unregister p.th
  let resident r = Atomic.get r.count
  let capacity r = r.cap * (r.nmask + 1)
  let head_gen r = Atomic.get r.head
  let tail_word r = Atomic.get r.tail

  let acquire_node r g =
    let n = match free_pop r.free with Some n -> n | None -> fresh_node r.cap in
    Plain.set n.gen g;
    n

  (* Make the staging node for generation [g'] present in the table.
     [false] means the table slot still holds an undrained older
     generation — the ring is at capacity.

     An advancer whose tail word went stale (it stalled while generation
     [g'] was installed, sealed and drained) can install a node for [g']
     after the drain cleared its slot. A node whose generation is below
     [head] is such a stale install: the drain clears a slot before it
     moves [head], so no live node is ever behind [head], and no claim
     can resolve to it. Left in place it would hold the slot for good —
     [g' + nodes] could never be installed, the ring never sealed past
     [g' + nodes - 1], and an extract would spin on its residents — so
     it is cleared here. *)
  let rec ensure_installed r g' =
    let cell = r.ntab.(g' land r.nmask) in
    match Atomic.get cell with
    | Some n when Plain.get n.gen = g' -> true
    | Some n as stale when Plain.get n.gen < Atomic.get r.head ->
        if Atomic.compare_and_set cell stale None then free_push r.free n;
        ensure_installed r g'
    | Some _ -> false
    | None ->
        let n = acquire_node r g' in
        if Atomic.compare_and_set cell None (Some n) then true
        else begin
          (* Lost the install race; the node is untouched, return it. *)
          free_push r.free n;
          match Atomic.get cell with Some n' -> Plain.get n'.gen = g' | None -> false
        end

  type advance_result = Advanced | Table_full | Contended

  (* Move the tail from the exact packed word [expect_w] to the next
     generation, recording the sealed claim count on the outgoing node.
     The install happens first so a producer claiming in the new
     generation always finds its node. *)
  let try_advance r ~expect_w =
    let g = expect_w lsr idx_bits in
    if not (ensure_installed r (g + 1)) then Table_full
    else if Atomic.compare_and_set r.tail expect_w ((g + 1) lsl idx_bits) then begin
      (match Atomic.get r.ntab.(g land r.nmask) with
      | Some node -> Atomic.set node.sealed (min (expect_w land idx_mask) r.cap)
      | None -> () (* unreachable: an unsealed generation is never cleared *));
      Advanced
    end
    else Contended

  (* Resolve a claim's generation to its staging node, publishing a hazard
     pointer over the write window (the same optimistic set/re-validate
     pattern the tree nodes use). The node is always found: generation [g]
     was installed before the tail could reach it, and cannot be drained
     while our claim's [ready] bump is outstanding. *)
  let resolve p g =
    let cell = p.r.ntab.(g land p.r.nmask) in
    let rec go () =
      match Atomic.get cell with
      | Some n when Plain.get n.gen = g -> begin
          match p.th with
          | None -> n
          | Some th ->
              Hazard.set th ~slot:0 n;
              (match Atomic.get cell with
              | Some n' when n' == n -> n
              | _ -> go ())
        end
      | _ ->
          (* Install in flight (the advancer's table CAS lands before its
             tail CAS, so this wait is one publication race wide). *)
          P.cpu_relax ();
          go ()
    in
    go ()

  let release p = match p.th with None -> () | Some th -> Hazard.clear th ~slot:0

  let rec push_aux p e ~attempts =
    let r = p.r in
    let w0 = Atomic.get r.tail in
    if w0 land idx_mask >= r.cap then
      (* The current node is exhausted: help seal it and advance — without
         FAAing first, so a full table cannot inflate the index bits. *)
      if attempts <= 0 then Rejected
      else begin
        match try_advance r ~expect_w:w0 with
        | Table_full -> Rejected
        | Advanced | Contended -> push_aux p e ~attempts:(attempts - 1)
      end
    else begin
      let w = Atomic.fetch_and_add r.tail 1 in
      let g = w lsr idx_bits and idx = w land idx_mask in
      if idx < r.cap then begin
        let node = resolve p g in
        Atomic.set node.slots.(idx) e;
        ignore (Atomic.fetch_and_add node.ready 1);
        Atomic.incr r.count;
        release p;
        if idx = r.cap - 1 then Pushed_sealed else Pushed
      end
      else if attempts <= 0 then Rejected
      else begin
        (* Overshot: the node filled between our read and our FAA. The
           claim is void (never counted in the sealed total); help advance
           and retry in the next generation. *)
        match try_advance r ~expect_w:w with
        | Table_full -> Rejected
        | Advanced | Contended -> push_aux p e ~attempts:(attempts - 1)
      end
    end

  let push p e = push_aux p e ~attempts:4

  let retire p node =
    match p.th with
    | Some th -> Hazard.retire th node
    | None ->
        reset node;
        free_push p.r.free node

  (* Drain every sealed generation (and, with [demand], seal and drain the
     current partial node) into [sink scratch n] — one call per node, under
     the flush trylock. Returns the number of elements handed over; [0]
     with [resident > 0] means another flusher holds the lock or the only
     elements sit in an un-demanded partial node. The sink must consume
     [scratch.(0 .. n-1)] before returning (the array is reused). *)
  let drain p ?(demand = false) sink =
    let r = p.r in
    if not (Mutex.try_lock r.flush_mu) then 0
    else
      Fun.protect
        ~finally:(fun () -> Mutex.unlock r.flush_mu)
        (fun () ->
          let total = ref 0 in
          let rounds = ref (8 * (r.nmask + 2)) in
          let continue_ = ref true in
          while !continue_ && !rounds > 0 do
            decr rounds;
            let g = Atomic.get r.head in
            match Atomic.get r.ntab.(g land r.nmask) with
            | None -> continue_ := false (* nothing ever claimed here: ring empty *)
            | Some node ->
                let sealed =
                  let w = Atomic.get r.tail in
                  if w lsr idx_bits > g then begin
                    (* Sealed by an advancing producer; its tail CAS
                       precedes the [sealed] store, so spin out the
                       publication gap — but only briefly: if the sealer
                       was descheduled inside the gap, burning the rest of
                       our quantum here (while holding [flush_mu]) starves
                       both the sealer and every other would-be flusher.
                       Bail and let a later drain retry. *)
                    let rec wait budget =
                      let s = Atomic.get node.sealed in
                      if s >= 0 then s
                      else if budget = 0 then -3 (* stalled sealer: give up *)
                      else begin
                        P.cpu_relax ();
                        wait (budget - 1)
                      end
                    in
                    wait stall_budget
                  end
                  else begin
                    let idx = w land idx_mask in
                    if idx >= r.cap || (demand && idx > 0) then begin
                      match try_advance r ~expect_w:w with
                      | Advanced -> Atomic.get node.sealed
                      | Table_full | Contended -> -1 (* re-read and retry *)
                    end
                    else -2 (* live partial node, no demand: stop *)
                  end
                in
                if sealed = -1 then ()
                else if sealed <= 0 then continue_ := false
                else begin
                  (* Every counted claim's FAA preceded the seal, so exactly
                     [sealed] ready bumps arrive; waiting for them is what
                     keeps a claimed-but-unwritten slot from being lost.
                     The wait is bounded for the same reason as the seal
                     gap above: a producer descheduled between its claim
                     FAA and its ready bump must not pin the flusher (and
                     [flush_mu]) for its whole absence — the node stays in
                     place and a later drain collects it. *)
                  let rec ready_wait budget =
                    if Atomic.get node.ready >= sealed then true
                    else if budget = 0 then false
                    else begin
                      P.cpu_relax ();
                      ready_wait (budget - 1)
                    end
                  in
                  if not (ready_wait stall_budget) then continue_ := false
                  else begin
                    for i = 0 to sealed - 1 do
                      r.scratch.(i) <- Atomic.get node.slots.(i)
                    done;
                    sink r.scratch sealed;
                    ignore (Atomic.fetch_and_add r.count (-sealed));
                    Atomic.set r.ntab.(g land r.nmask) None;
                    Atomic.set r.head (g + 1);
                    retire p node;
                    total := !total + sealed
                  end
                end
          done;
          !total)

  module Debug = struct
    let freelist_len r = List.length (Atomic.get r.free)

    let hazard_stats r =
      Option.map (fun hp -> (Hazard.retired_count hp, Hazard.recycled_count hp)) r.hp
  end
end

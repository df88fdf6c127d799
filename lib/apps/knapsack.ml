module Elt = Zmsq_pq.Elt
module Intf = Zmsq_pq.Intf

type instance = { values : int array; weights : int array; capacity : int }

let generate rng ~n ?(max_value = 1000) ?(max_weight = 1000) ?(tightness = 0.5) () =
  if n <= 0 then invalid_arg "Knapsack.generate";
  let weights = Array.init n (fun _ -> 1 + Zmsq_util.Rng.int rng max_weight) in
  (* weakly correlated: value near weight, clamped positive *)
  let values =
    Array.map
      (fun w ->
        let noise = Zmsq_util.Rng.int rng (max_value / 5) - (max_value / 10) in
        max 1 (min max_value (w + noise)))
      weights
  in
  let total = Array.fold_left ( + ) 0 weights in
  { values; weights; capacity = max 1 (int_of_float (float_of_int total *. tightness)) }

let solve_dp { values; weights; capacity } =
  let best = Array.make (capacity + 1) 0 in
  Array.iteri
    (fun i w ->
      for c = capacity downto w do
        if best.(c - w) + values.(i) > best.(c) then best.(c) <- best.(c - w) + values.(i)
      done)
    weights;
  best.(capacity)

(* Normalize: items sorted by value density, the branching order. *)
let by_density { values; weights; capacity } =
  let n = Array.length values in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      compare
        (float_of_int values.(b) /. float_of_int weights.(b))
        (float_of_int values.(a) /. float_of_int weights.(a)))
    idx;
  {
    values = Array.map (fun i -> values.(i)) idx;
    weights = Array.map (fun i -> weights.(i)) idx;
    capacity;
  }

let solve_greedy inst =
  let { values; weights; capacity } = by_density inst in
  let value = ref 0 and room = ref capacity in
  Array.iteri
    (fun i w ->
      if w <= !room then begin
        room := !room - w;
        value := !value + values.(i)
      end)
    weights;
  !value

(* Fractional (LP-relaxation) upper bound for the subproblem that has
   decided items [0, level) and carries (weight, value). Items are density
   sorted, so greedy + fraction is optimal for the relaxation. *)
let upper_bound { values; weights; capacity } ~level ~weight ~value =
  let n = Array.length values in
  let room = ref (capacity - weight) in
  let bound = ref value in
  let i = ref level in
  let exact = ref true in
  while !exact && !i < n do
    if weights.(!i) <= !room then begin
      room := !room - weights.(!i);
      bound := !bound + values.(!i);
      incr i
    end
    else begin
      bound := !bound + (values.(!i) * !room / weights.(!i));
      exact := false
    end
  done;
  !bound

type stats = { explored : int; pruned : int; wall_seconds : float }

(* Append-only chunked node store: lock-free reads, mutex-guarded chunk
   allocation. Node ids index it and ride in element payloads. *)
module Store = struct
  let chunk_bits = 14
  let chunk_size = 1 lsl chunk_bits

  type t = {
    chunks : (int * int * int) array option Atomic.t array; (* lint: unpadded write-once publish slots; read-mostly after *)
    cursor : int Atomic.t; (* lint: unpadded single FAA per 16K-node chunk; cold *)
    grow_mu : Mutex.t;
  }

  let create ~max_nodes =
    let n_chunks = ((max_nodes + chunk_size - 1) / chunk_size) + 1 in
    {
      chunks = Array.init n_chunks (fun _ -> Atomic.make None);
      cursor = Atomic.make 0;
      grow_mu = Mutex.create ();
    }

  let ensure_chunk t ci =
    if ci >= Array.length t.chunks then failwith "Knapsack: node store exhausted";
    match Atomic.get t.chunks.(ci) with
    | Some c -> c
    | None ->
        Mutex.lock t.grow_mu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.grow_mu)
          (fun () ->
            match Atomic.get t.chunks.(ci) with
            | Some c -> c
            | None ->
                let c = Array.make chunk_size (0, 0, 0) in
                Atomic.set t.chunks.(ci) (Some c);
                c)

  let add t node =
    let id = Atomic.fetch_and_add t.cursor 1 in
    let chunk = ensure_chunk t (id lsr chunk_bits) in
    chunk.(id land (chunk_size - 1)) <- node;
    id

  let get t id =
    match Atomic.get t.chunks.(id lsr chunk_bits) with
    | Some chunk -> chunk.(id land (chunk_size - 1))
    | None -> invalid_arg "Knapsack.Store.get"
end

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v <= cur then () else if Atomic.compare_and_set a cur v then () else atomic_max a v

let solve_bb (inst_q : Intf.instance) problem ~threads =
  let module I = (val inst_q : Intf.INSTANCE) in
  let problem = by_density problem in
  let n = Array.length problem.values in
  let store = Store.create ~max_nodes:(1 lsl 22) in
  let best = Atomic.make (solve_greedy problem) in
  let inflight = Atomic.make 1 in
  let root = Store.add store (0, 0, 0) in
  let root_bound = upper_bound problem ~level:0 ~weight:0 ~value:0 in
  let seed = I.Q.register I.q in
  I.Q.insert seed (Elt.pack ~priority:(min Elt.max_priority root_bound) ~payload:root);
  I.Q.unregister seed;
  let t0 = Zmsq_util.Timing.now_ns () in
  let worker () =
    Domain.spawn (fun () ->
        let h = I.Q.register I.q in
        let explored = ref 0 and pruned = ref 0 in
        let push ~level ~weight ~value =
          let bound = upper_bound problem ~level ~weight ~value in
          if bound > Atomic.get best then begin
            let id = Store.add store (level, weight, value) in
            Atomic.incr inflight;
            I.Q.insert h (Elt.pack ~priority:(min Elt.max_priority bound) ~payload:id)
          end
        in
        let rec loop () =
          let e = I.Q.extract h in
          if Elt.is_none e then begin
            if Atomic.get inflight > 0 then begin
              Domain.cpu_relax (); (* lint: allow unbounded-spin one idle worker per domain *)
              loop ()
            end
          end
          else begin
            let bound = Elt.priority e in
            let level, weight, value = Store.get store (Elt.payload e) in
            if bound <= Atomic.get best then incr pruned
            else if level >= n then atomic_max best value
            else begin
              incr explored;
              (* take item [level] if it fits; its value is itself feasible *)
              if weight + problem.weights.(level) <= problem.capacity then begin
                let value' = value + problem.values.(level) in
                atomic_max best value';
                push ~level:(level + 1) ~weight:(weight + problem.weights.(level)) ~value:value'
              end;
              (* skip item [level] *)
              push ~level:(level + 1) ~weight ~value
            end;
            Atomic.decr inflight;
            loop ()
          end
        in
        loop ();
        I.Q.unregister h;
        (!explored, !pruned))
  in
  let domains = Array.init threads (fun _ -> worker ()) in
  let explored, pruned =
    Array.fold_left
      (fun (e, p) d ->
        let e', p' = Domain.join d in
        (e + e', p + p'))
      (0, 0) domains
  in
  let wall = float_of_int (Zmsq_util.Timing.now_ns () - t0) /. 1e9 in
  (Atomic.get best, { explored; pruned; wall_seconds = wall })

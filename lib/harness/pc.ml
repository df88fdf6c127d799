module Rng = Zmsq_util.Rng
module Elt = Zmsq_pq.Elt
module Intf = Zmsq_pq.Intf

type spec = { producers : int; consumers : int; items : int; seed : int }

type result = { wall_seconds : float; transfers_per_sec : float; failed_extracts : int }

let run factory spec =
  if spec.producers < 1 || spec.consumers < 1 || spec.items < 1 then invalid_arg "Pc.run";
  let inst = factory () in
  let module I = (val inst : Intf.INSTANCE) in
  let remaining = Atomic.make spec.items in
  (* consumed counts successful extractions; consumers exit once it hits
     [items], so stragglers never spin on a drained queue forever. *)
  let consumed = Atomic.make 0 in
  let threads = spec.producers + spec.consumers in
  let results, wall =
    Runner.timed_parallel_pre ~threads
      ~setup:(fun tid -> (I.Q.register I.q, Rng.create ~seed:(spec.seed + tid) ()))
      ~run:(fun tid (h, rng) ->
        if tid < spec.producers then begin
          let rec produce () =
            let i = Atomic.fetch_and_add remaining (-1) in
            if i > 0 then begin
              I.Q.insert h (Elt.of_priority (Rng.int rng (1 lsl 20)));
              produce ()
            end
          in
          produce ();
          I.Q.unregister h;
          0
        end
        else begin
          let failed = ref 0 in
          let rec consume () =
            if Atomic.get consumed < spec.items then begin
              let e = I.Q.extract h in
              if Elt.is_none e then begin
                incr failed;
                Domain.cpu_relax () (* lint: allow unbounded-spin the polling consumer is the measured shape *)
              end
              else Atomic.incr consumed;
              consume ()
            end
          in
          consume ();
          I.Q.unregister h;
          !failed
        end)
  in
  let failed = Array.fold_left ( + ) 0 results in
  {
    wall_seconds = wall;
    transfers_per_sec = float_of_int spec.items /. wall;
    failed_extracts = failed;
  }

let run_avg ?repeats factory spec =
  let repeats =
    match repeats with Some r -> r | None -> Zmsq_util.Env.int "ZMSQ_BENCH_RUNS" ~default:3
  in
  let walls = ref 0.0 and failed = ref 0 in
  for i = 1 to repeats do
    let r = run factory { spec with seed = spec.seed + (i * 31) } in
    walls := !walls +. r.wall_seconds;
    failed := !failed + r.failed_extracts
  done;
  let wall = !walls /. float_of_int repeats in
  { wall_seconds = wall; transfers_per_sec = float_of_int spec.items /. wall; failed_extracts = !failed }
